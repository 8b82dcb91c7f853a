"""The lock-order (deadlock) analyzer.

Builds the static lock-acquisition graph of the package: nodes are locks
(module-level ``threading.Lock()`` / ``guard_lock()`` definitions and
``self.x = threading.Lock()`` class attributes; conditions and semaphores
are locks too — ``with cond:`` acquires), and an edge ``A -> B``
means some code path acquires ``B`` while already holding ``A`` — either
lexically (nested ``with`` blocks) or through a resolvable call made
inside a ``with`` block (same-module functions, ``self.`` methods, and
``from x import f`` imports; anything else is conservatively ignored).

A cycle in this graph is the classic deadlock precondition: two threads
taking the same locks in opposite orders can block forever.  The analyzer
reports every strongly-connected component with more than one lock — and
every self-edge on a non-reentrant lock, which needs only a single thread
to deadlock.

Instance locks are modeled one-per-class-attribute; that is conservative
(two instances of the same class are distinct locks at runtime) but the
codebase never nests same-class instances, so no false cycles arise.
"""

import ast
import os

from repro.analysis.code_lint import Violation, walk_sources

#: rule id -> one-line description (merged into the concurrency catalog).
LOCKORDER_RULES = {
    "lock-order-cycle":
        "the static lock-acquisition graph must be acyclic",
}

_LOCK_FACTORIES = frozenset({
    "Lock", "RLock", "guard_lock", "InstrumentedLock",
    "Condition", "Semaphore", "BoundedSemaphore",
})
_REENTRANT_FACTORIES = frozenset({"RLock"})


def _module_name(relpath):
    """Dotted module for a package-relative path."""
    parts = relpath.replace(os.sep, "/").split("/")
    if parts[-1] == "__init__.py":
        parts = parts[:-1]
    else:
        parts[-1] = parts[-1][:-3] if parts[-1].endswith(".py") else parts[-1]
    return ".".join(parts)


def _lock_factory(value):
    """(is_lock, reentrant) for an assignment's value expression."""
    if not isinstance(value, ast.Call):
        return False, False
    func = value.func
    name = (
        func.id if isinstance(func, ast.Name)
        else func.attr if isinstance(func, ast.Attribute)
        else None
    )
    if name not in _LOCK_FACTORIES:
        return False, False
    reentrant = name in _REENTRANT_FACTORIES
    if name == "Condition":
        # A bare Condition() wraps an RLock; Condition(lock) is exactly as
        # reentrant as the lock it is built over (unknown counts as not).
        inner = value.args[0] if value.args else next(
            (k.value for k in value.keywords if k.arg == "lock"), None
        )
        reentrant = inner is None or _lock_factory(inner)[1]
    for keyword in value.keywords:
        if keyword.arg == "reentrant":
            reentrant = not (
                isinstance(keyword.value, ast.Constant)
                and not keyword.value.value
            )
    return True, reentrant


class _ModuleScan(ast.NodeVisitor):
    """One module's locks, imports, and per-function acquisition events."""

    def __init__(self, relpath):
        self.module = _module_name(relpath)
        self.relpath = relpath.replace(os.sep, "/")
        self.module_locks = {}   # local name -> (lock_id, reentrant)
        self.class_locks = {}    # (class, attr) -> (lock_id, reentrant)
        self.imports = {}        # local name -> (module, member)
        self.functions = {}      # qualname -> _FunctionScan
        self._class_stack = []
        self._function_stack = []

    # -- imports --------------------------------------------------------

    def visit_ImportFrom(self, node):
        if node.module:
            for alias in node.names:
                self.imports[alias.asname or alias.name] = (
                    node.module, alias.name
                )
        self.generic_visit(node)

    # -- definitions ----------------------------------------------------

    def visit_ClassDef(self, node):
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    def visit_Assign(self, node):
        is_lock, reentrant = _lock_factory(node.value)
        if is_lock:
            for target in node.targets:
                if isinstance(target, ast.Name) and not self._function_stack:
                    lock_id = f"{self.module}.{target.id}"
                    self.module_locks[target.id] = (lock_id, reentrant)
                elif (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and self._class_stack
                ):
                    cls = self._class_stack[-1]
                    lock_id = f"{self.module}.{cls}.{target.attr}"
                    self.class_locks[(cls, target.attr)] = (
                        lock_id, reentrant
                    )
        self.generic_visit(node)

    # -- function bodies ------------------------------------------------

    def _qualname(self, name):
        parts = list(self._class_stack) + [name]
        return ".".join(parts)

    def _visit_function(self, node):
        qualname = self._qualname(node.name)
        scan = _FunctionScan(
            qualname, self._class_stack[-1] if self._class_stack else None
        )
        self.functions.setdefault(qualname, scan)
        self._function_stack.append(scan)
        self.generic_visit(node)
        self._function_stack.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_With(self, node):
        scan = self._function_stack[-1] if self._function_stack else None
        if scan is None:
            self.generic_visit(node)
            return
        items = []
        for item in node.items:
            ref = self._lock_ref(item.context_expr)
            if ref is not None:
                items.append(ref)
                scan.acquisitions.append(
                    (tuple(scan.held), ref, node.lineno)
                )
        scan.held.extend(items)
        self.generic_visit(node)
        del scan.held[len(scan.held) - len(items):]

    visit_AsyncWith = visit_With

    def visit_Call(self, node):
        # Record every resolvable call, held or not: unheld calls carry
        # an empty held-tuple (they produce no edges directly) but feed
        # the transitive lockset so A -> middle() -> inner() -> B still
        # yields the A -> B edge.
        scan = self._function_stack[-1] if self._function_stack else None
        if scan is not None:
            callee = self._call_ref(node.func)
            if callee is not None:
                scan.calls.append((tuple(scan.held), callee, node.lineno))
        self.generic_visit(node)

    # -- reference descriptors ------------------------------------------

    def _lock_ref(self, expr):
        """A lock reference descriptor for a ``with`` item, or None."""
        if isinstance(expr, ast.Name):
            return ("name", self.module, expr.id)
        if isinstance(expr, ast.Attribute):
            if (
                isinstance(expr.value, ast.Name)
                and expr.value.id == "self"
                and self._class_stack
            ):
                return (
                    "self", self.module, self._class_stack[-1], expr.attr
                )
            return ("attr", expr.attr)
        return None

    def _call_ref(self, func):
        """A callee descriptor for call-graph edges, or None."""
        if isinstance(func, ast.Name):
            return ("func", self.module, func.id)
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
            and self._class_stack
        ):
            return (
                "method", self.module, self._class_stack[-1], func.attr
            )
        return None


class _FunctionScan:
    __slots__ = ("qualname", "cls", "held", "acquisitions", "calls")

    def __init__(self, qualname, cls):
        self.qualname = qualname
        self.cls = cls
        self.held = []          # parse-time with-stack (descriptors)
        self.acquisitions = []  # (held descriptors, descriptor, lineno)
        self.calls = []         # (held descriptors, callee, lineno)


class LockGraph:
    """The resolved lock-acquisition graph."""

    def __init__(self):
        self.locks = {}  # lock_id -> {"reentrant": bool}
        self.edges = {}  # (from, to) -> (path, line)

    def add_edge(self, source, target, path, line):
        self.edges.setdefault((source, target), (path, line))

    def cycles(self):
        """Strongly-connected components with >1 lock, plus self-edges on
        non-reentrant locks; each cycle is a sorted list of lock ids."""
        adjacency = {}
        for (source, target) in self.edges:
            adjacency.setdefault(source, set()).add(target)
            adjacency.setdefault(target, set())
        found = []
        for component in _tarjan(adjacency):
            if len(component) > 1:
                found.append(sorted(component))
        for (source, target) in self.edges:
            if source == target and not self.locks.get(
                source, {}
            ).get("reentrant"):
                found.append([source])
        return sorted(found)

    def to_document(self):
        return {
            "locks": {
                lock_id: dict(info)
                for lock_id, info in sorted(self.locks.items())
            },
            "edges": [
                {"from": source, "to": target, "path": path, "line": line}
                for (source, target), (path, line)
                in sorted(self.edges.items())
            ],
            "cycles": self.cycles(),
        }


def _tarjan(adjacency):
    """Strongly-connected components (iterative Tarjan)."""
    index = {}
    lowlink = {}
    on_stack = set()
    stack = []
    components = []
    counter = [0]

    for root in sorted(adjacency):
        if root in index:
            continue
        work = [(root, iter(sorted(adjacency[root])))]
        index[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            advanced = False
            for successor in successors:
                if successor not in index:
                    index[successor] = lowlink[successor] = counter[0]
                    counter[0] += 1
                    stack.append(successor)
                    on_stack.add(successor)
                    work.append(
                        (successor, iter(sorted(adjacency[successor])))
                    )
                    advanced = True
                    break
                if successor in on_stack:
                    lowlink[node] = min(lowlink[node], index[successor])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
    return components


class _Resolver:
    """Global resolution of lock/callee descriptors across modules."""

    def __init__(self, scans):
        self.scans = {scan.module: scan for scan in scans}
        self.attr_index = {}  # attr -> set of lock ids
        for scan in scans:
            for (_cls, attr), (lock_id, _re) in scan.class_locks.items():
                self.attr_index.setdefault(attr, set()).add(lock_id)

    def lock(self, ref):
        kind = ref[0]
        if kind == "name":
            _, module, name = ref
            scan = self.scans.get(module)
            if scan is None:
                return None
            entry = scan.module_locks.get(name)
            if entry is not None:
                return entry
            imported = scan.imports.get(name)
            if imported is not None:
                target = self.scans.get(imported[0])
                if target is not None:
                    return target.module_locks.get(imported[1])
            return None
        if kind == "self":
            _, module, cls, attr = ref
            scan = self.scans.get(module)
            if scan is not None:
                entry = scan.class_locks.get((cls, attr))
                if entry is not None:
                    return entry
            return self._by_attr(attr)
        if kind == "attr":
            return self._by_attr(ref[1])
        return None

    def _by_attr(self, attr):
        candidates = self.attr_index.get(attr, ())
        if len(candidates) == 1:
            (lock_id,) = candidates
            return (lock_id, False)
        return None

    def callee(self, ref):
        kind = ref[0]
        if kind == "func":
            _, module, name = ref
            scan = self.scans.get(module)
            if scan is None:
                return None
            if name in scan.functions:
                return (module, name)
            imported = scan.imports.get(name)
            if imported is not None:
                target = self.scans.get(imported[0])
                if target is not None and imported[1] in target.functions:
                    return imported
            return None
        if kind == "method":
            _, module, cls, attr = ref
            scan = self.scans.get(module)
            qualname = f"{cls}.{attr}"
            if scan is not None and qualname in scan.functions:
                return (module, qualname)
        return None


def _scan_source(source, relpath):
    scan = _ModuleScan(relpath)
    scan.visit(ast.parse(source, filename=relpath))
    return scan


def _build_graph(scans):
    resolver = _Resolver(scans)
    graph = LockGraph()
    for scan in scans:
        for name, (lock_id, reentrant) in scan.module_locks.items():
            graph.locks[lock_id] = {"reentrant": reentrant}
        for key, (lock_id, reentrant) in scan.class_locks.items():
            graph.locks[lock_id] = {"reentrant": reentrant}

    # Transitive locksets per function (own acquisitions + callees').
    locksets = {}
    for scan in scans:
        for qualname, function in scan.functions.items():
            own = set()
            for _held, ref, _line in function.acquisitions:
                entry = resolver.lock(ref)
                if entry is not None:
                    own.add(entry[0])
            locksets[(scan.module, qualname)] = own
    call_edges = {}
    for scan in scans:
        for qualname, function in scan.functions.items():
            callees = set()
            for _held, callee, _line in function.calls:
                resolved = resolver.callee(callee)
                if resolved is not None:
                    callees.add(resolved)
            call_edges[(scan.module, qualname)] = callees
    changed = True
    while changed:
        changed = False
        for key, callees in call_edges.items():
            lockset = locksets[key]
            before = len(lockset)
            for callee in callees:
                lockset |= locksets.get(callee, set())
            if len(lockset) != before:
                changed = True

    # Edges: lexical nesting plus call sites made while holding locks.
    for scan in scans:
        for function in scan.functions.values():
            for held, ref, line in function.acquisitions:
                target = resolver.lock(ref)
                if target is None:
                    continue
                for held_ref in held:
                    source_lock = resolver.lock(held_ref)
                    if source_lock is None:
                        continue
                    if (
                        source_lock[0] == target[0]
                        and target[1]  # reentrant self-nesting is fine
                    ):
                        continue
                    graph.add_edge(
                        source_lock[0], target[0], scan.relpath, line
                    )
            for held, callee, line in function.calls:
                resolved = resolver.callee(callee)
                if resolved is None:
                    continue
                callee_locks = locksets.get(resolved, set())
                for held_ref in held:
                    source_lock = resolver.lock(held_ref)
                    if source_lock is None:
                        continue
                    for target_id in callee_locks:
                        if source_lock[0] == target_id and (
                            source_lock[1]
                            or graph.locks.get(target_id, {}).get(
                                "reentrant"
                            )
                        ):
                            continue
                        graph.add_edge(
                            source_lock[0], target_id, scan.relpath, line
                        )
    return graph


def build_lock_graph(paths):
    """The resolved :class:`LockGraph` of files / directory trees (see
    :func:`repro.analysis.code_lint.walk_sources` for path keying)."""
    return _build_graph([
        _scan_source(source, relpath)
        for relpath, source in walk_sources(paths)
    ])


def _cycle_violations(graph):
    violations = []
    for cycle in graph.cycles():
        members = set(cycle)
        path, line = "", 0
        for (source, target), site in sorted(graph.edges.items()):
            if source in members and target in members:
                path, line = site
                break
        chain = " -> ".join(cycle + [cycle[0]])
        violations.append(Violation(
            rule="lock-order-cycle",
            severity="error",
            path=path,
            line=line,
            scope="<lock-graph>",
            symbol=" -> ".join(cycle),
            message=(
                f"potential deadlock: lock acquisition cycle {chain} — "
                "establish a single acquisition order (or make the inner "
                "acquisition lock-free) and re-run repro analyze "
                "--concurrency"
            ),
        ))
    return sorted(
        violations, key=lambda v: (v.path, v.line, v.rule, v.symbol)
    )


def lockorder_source(source, relpath):
    """Lock-order check of one module's source text (tests, fixtures)."""
    return _cycle_violations(_build_graph([_scan_source(source, relpath)]))


def lockorder_paths(paths):
    """Lock-order check of files and directory trees."""
    return _cycle_violations(build_lock_graph(paths))


def lockorder_package():
    """Lock-order check of the installed :mod:`repro` package tree."""
    return lockorder_paths(None)


def lock_graph_document(paths=None):
    """JSON document of the lock graph (``repro analyze --json``);
    ``None`` covers the installed :mod:`repro` package tree."""
    return build_lock_graph(paths).to_document()
