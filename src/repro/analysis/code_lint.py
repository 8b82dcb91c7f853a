"""Head 2: the :mod:`ast`-based codebase invariant checker.

Repo-specific rules generic linters cannot express, keyed to the
guarantees the reproduction depends on:

* ``wall-clock-in-engine`` — the engines report *simulated* time; a
  ``time.time()`` / ``perf_counter()`` reachable from a simulated-cost
  path (``repro/engine/``, ``repro/exec/``, ``repro/cstore/``,
  ``repro/colstore/``, ``repro/rowstore/``) silently contaminates
  Tables 6/7.
* ``unseeded-random-in-engine`` — same paths: module-global ``random.*``
  or legacy ``numpy.random.*`` calls break run-to-run determinism; only
  explicitly seeded generators (``random.Random(seed)``,
  ``np.random.default_rng(seed)``) are allowed.
* ``set-iteration-in-report`` — benchmark/report output must be
  byte-identical between serial and parallel runs (PR 3's guarantee);
  iterating a bare ``set`` feeds hash order into output.  Applies to
  ``repro/bench/``, ``repro/observe/``, ``repro/analysis/``,
  ``repro/verify.py`` and ``repro/cli.py``.  ``sorted({...})`` is fine —
  the rule only fires when the set itself is the iterable.
* ``join-sort-hint`` — every call of the ``join_indices`` kernel must
  thread the ``assume_sorted`` sort-order hint explicitly; forgetting it
  makes the kernel re-check sortedness the plan had already proven.
* ``plan-mutation`` — ``LogicalPlan`` nodes are immutable after
  construction (documented in :mod:`repro.plan.logical`); assigning to a
  plan-node field outside an ``__init__`` breaks plan sharing between the
  optimizer, the profiler and the engines.

Run as ``repro lint``, which fails on any violation: the rules are
path-scoped, so code that legitimately needs the wall clock lives outside
the simulated-cost paths rather than behind a suppression.
"""

import ast
import os
from dataclasses import dataclass

#: rule id -> one-line description (the catalog).
CODE_RULES = {
    "wall-clock-in-engine":
        "no wall clock reachable from simulated-cost paths",
    "unseeded-random-in-engine":
        "no unseeded randomness reachable from simulated-cost paths",
    "set-iteration-in-report":
        "no bare-set iteration feeding benchmark/report output",
    "join-sort-hint":
        "join kernels must thread the assume_sorted hint explicitly",
    "plan-mutation":
        "LogicalPlan nodes are immutable after construction",
}

#: Package-relative path prefixes whose costs are simulated.
SIMULATED_COST_PREFIXES = (
    "repro/engine/",
    "repro/exec/",
    "repro/cstore/",
    "repro/colstore/",
    "repro/rowstore/",
)

#: Paths whose iteration order reaches benchmark/report output.
REPORT_PREFIXES = (
    "repro/bench/", "repro/observe/", "repro/analysis/",
    "repro/api/", "repro/server/",
)
REPORT_FILES = ("repro/verify.py", "repro/cli.py")

_WALL_CLOCK_FUNCS = frozenset({
    "time", "time_ns", "perf_counter", "perf_counter_ns",
    "monotonic", "monotonic_ns", "process_time", "process_time_ns",
    "clock",
})
_DATETIME_FUNCS = frozenset({"now", "utcnow", "today"})

#: numpy.random members that build explicitly seeded generators.
_SEEDED_CONSTRUCTORS = frozenset({"default_rng", "SeedSequence"})

#: Distinctive LogicalPlan field names (generic ones like ``value`` or
#: ``keys`` would drown the rule in false positives).
_PLAN_FIELDS = frozenset({
    "left", "right", "child", "on", "predicates", "mapping",
    "base_columns", "count_column", "aggregates", "inputs",
})


@dataclass(frozen=True)
class Violation:
    """One codebase-checker finding."""

    rule: str
    severity: str
    path: str    # package-relative posix path, e.g. "repro/engine/clock.py"
    line: int
    scope: str   # dotted enclosing defs, "<module>" at top level
    symbol: str  # the offending symbol, e.g. "time.perf_counter"
    message: str

    def render(self):
        return (
            f"{self.path}:{self.line}: {self.severity} "
            f"[{self.rule}] {self.message}"
        )

    def to_dict(self):
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "scope": self.scope,
            "symbol": self.symbol,
            "message": self.message,
        }


def _in_simulated_cost_path(relpath):
    return relpath.startswith(SIMULATED_COST_PREFIXES)


def _in_report_path(relpath):
    return relpath.startswith(REPORT_PREFIXES) or relpath in REPORT_FILES


class _Checker(ast.NodeVisitor):
    def __init__(self, relpath):
        self.relpath = relpath
        self.violations = []
        self.scope = []
        # local alias -> canonical module ("time", "random", ...)
        self.module_aliases = {}
        # local name -> (module, member) for from-imports
        self.member_aliases = {}

    # -- helpers --------------------------------------------------------

    def _scope_name(self):
        return ".".join(self.scope) if self.scope else "<module>"

    def _emit(self, rule, severity, node, symbol, message):
        self.violations.append(Violation(
            rule=rule,
            severity=severity,
            path=self.relpath,
            line=getattr(node, "lineno", 0),
            scope=self._scope_name(),
            symbol=symbol,
            message=message,
        ))

    # -- imports --------------------------------------------------------

    _TRACKED_MODULES = ("time", "random", "datetime", "numpy")

    def visit_Import(self, node):
        for alias in node.names:
            root = alias.name.split(".")[0]
            if root in self._TRACKED_MODULES:
                self.module_aliases[alias.asname or root] = root
            if alias.name == "numpy.random":
                self.member_aliases[alias.asname or "numpy"] = (
                    "numpy", "random"
                )
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        module = (node.module or "").split(".")[0]
        if module in self._TRACKED_MODULES:
            for alias in node.names:
                self.member_aliases[alias.asname or alias.name] = (
                    node.module, alias.name
                )
        self.generic_visit(node)

    # -- scope tracking -------------------------------------------------

    def _visit_scoped(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = _visit_scoped
    visit_AsyncFunctionDef = _visit_scoped
    visit_ClassDef = _visit_scoped

    # -- calls: wall clock, randomness, join hint -----------------------

    def visit_Call(self, node):
        self._check_wall_clock(node)
        self._check_random(node)
        self._check_join_hint(node)
        self.generic_visit(node)

    def _call_target(self, node):
        """Resolve ``module.member(...)`` / bare ``member(...)`` calls.

        Returns ``(module, member)`` with *module* canonicalized through
        the alias maps, or ``(None, None)``.
        """
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(
            func.value, ast.Name
        ):
            module = self.module_aliases.get(func.value.id)
            if module is not None:
                return module, func.attr
            member = self.member_aliases.get(func.value.id)
            if member is not None:  # e.g. "from datetime import datetime"
                return ".".join(member), func.attr
        elif isinstance(func, ast.Name):
            member = self.member_aliases.get(func.id)
            if member is not None:
                return member
        return None, None

    def _check_wall_clock(self, node):
        if not _in_simulated_cost_path(self.relpath):
            return
        module, member = self._call_target(node)
        if module == "time" and member in _WALL_CLOCK_FUNCS:
            symbol = f"time.{member}"
        elif module in ("datetime.datetime", "datetime.date") \
                and member in _DATETIME_FUNCS:
            symbol = f"{module}.{member}"
        elif module == "datetime" and member in _DATETIME_FUNCS:
            symbol = f"datetime.{member}"
        else:
            return
        self._emit(
            "wall-clock-in-engine", "error", node, symbol,
            f"{symbol}() in a simulated-cost path: engine timings must "
            "come from the simulated query clock (repro.engine.clock), "
            "never the wall clock",
        )

    def _check_random(self, node):
        if not _in_simulated_cost_path(self.relpath):
            return
        module, member = self._call_target(node)
        if module == "random":
            if member in ("Random", "SystemRandom") and node.args:
                return  # explicitly seeded generator
            symbol = f"random.{member}"
        elif module in ("numpy", "numpy.random"):
            if module == "numpy":
                return  # plain numpy call; numpy.random handled below
            if member in _SEEDED_CONSTRUCTORS and node.args:
                return
            symbol = f"numpy.random.{member}"
        else:
            # np.random.<fn>(...) — an attribute chain through numpy.
            func = node.func
            if not (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Attribute)
                and func.value.attr == "random"
                and isinstance(func.value.value, ast.Name)
                and self.module_aliases.get(func.value.value.id) == "numpy"
            ):
                return
            if func.attr in _SEEDED_CONSTRUCTORS and node.args:
                return
            symbol = f"numpy.random.{func.attr}"
        self._emit(
            "unseeded-random-in-engine", "error", node, symbol,
            f"{symbol}() in a simulated-cost path: only explicitly seeded "
            "generators (random.Random(seed), np.random.default_rng(seed)) "
            "keep runs deterministic",
        )

    def _check_join_hint(self, node):
        func = node.func
        name = (
            func.id if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute)
            else None
        )
        if name != "join_indices":
            return
        if any(kw.arg == "assume_sorted" for kw in node.keywords):
            return
        self._emit(
            "join-sort-hint", "error", node, "join_indices",
            "join_indices(...) without an explicit assume_sorted= hint: "
            "every executor join entry point must thread the plan's "
            "sort-order metadata to the kernel",
        )

    # -- bare-set iteration ---------------------------------------------

    @staticmethod
    def _is_set_expr(node):
        return isinstance(node, (ast.Set, ast.SetComp)) or (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")
        )

    def _check_set_iteration(self, iter_node, at):
        if not _in_report_path(self.relpath):
            return
        if self._is_set_expr(iter_node):
            self._emit(
                "set-iteration-in-report", "warning", at, "set",
                "iterating a bare set in a report/benchmark path: set "
                "order is hash order, which breaks byte-identical "
                "serial/parallel output; sort it or use a dict/list",
            )

    def visit_For(self, node):
        self._check_set_iteration(node.iter, node)
        self.generic_visit(node)

    visit_AsyncFor = visit_For

    def _visit_comprehension(self, node):
        for generator in node.generators:
            self._check_set_iteration(generator.iter, node)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension
    visit_DictComp = _visit_comprehension

    def visit_SetComp(self, node):
        # Building a set from a set is order-free; only *iteration into
        # ordered output* is hazardous — but a SetComp over a set feeds a
        # set, so skip the check on its own generators' set-ness result
        # while still recursing for nested constructs.
        self.generic_visit(node)

    # -- plan mutation ---------------------------------------------------

    def _check_plan_mutation(self, target, node):
        if not isinstance(target, ast.Attribute):
            return
        if target.attr not in _PLAN_FIELDS:
            return
        inside_init = (
            self.scope
            and self.scope[-1] == "__init__"
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        )
        if inside_init:
            return
        self._emit(
            "plan-mutation", "error", node, target.attr,
            f"assignment to .{target.attr} outside __init__: LogicalPlan "
            "nodes are immutable after construction — build a new node "
            "(see plan/optimizer.py's _clone_with_children)",
        )

    def visit_Assign(self, node):
        for target in node.targets:
            if isinstance(target, (ast.Tuple, ast.List)):
                for element in target.elts:
                    self._check_plan_mutation(element, node)
            else:
                self._check_plan_mutation(target, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node):
        self._check_plan_mutation(node.target, node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node):
        self._check_plan_mutation(node.target, node)
        self.generic_visit(node)


def lint_source(source, relpath):
    """Check one module's source text; *relpath* is package-relative
    (e.g. ``"repro/engine/clock.py"``) and selects the path-scoped rules.
    Returns a list of :class:`Violation` in line order.
    """
    tree = ast.parse(source, filename=relpath)
    checker = _Checker(relpath.replace(os.sep, "/"))
    checker.visit(tree)
    return sorted(
        checker.violations,
        key=lambda v: (v.path, v.line, v.rule, v.symbol),
    )


def walk_sources(paths=None):
    """Yield ``(relpath, source)`` for every module under *paths* — the
    one source walker behind both AST heads (this linter and the
    concurrency checker).

    Directory arguments are walked for ``*.py`` in sorted order; each
    file's package-relative path is computed against the *parent* of the
    argument (so passing ``.../src/repro`` keys files as ``repro/...``).
    ``None`` walks the installed :mod:`repro` package source tree.
    """
    if paths is None:
        import repro

        paths = [os.path.dirname(os.path.abspath(repro.__file__))]
    for argument in paths:
        argument = os.path.abspath(argument)
        base = os.path.dirname(argument)
        for full_path in _python_files(argument):
            relpath = os.path.relpath(full_path, base).replace(os.sep, "/")
            with open(full_path, encoding="utf-8") as handle:
                yield relpath, handle.read()


def _python_files(argument):
    if not os.path.isdir(argument):
        yield argument
        return
    for dirpath, dirnames, filenames in os.walk(argument):
        dirnames.sort()
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                yield os.path.join(dirpath, filename)


def lint_paths(paths):
    """Check files and directory trees (see :func:`walk_sources` for path
    keying).  Returns violations sorted by path, line, rule."""
    violations = []
    for relpath, source in walk_sources(paths):
        violations.extend(lint_source(source, relpath))
    return sorted(
        violations, key=lambda v: (v.path, v.line, v.rule, v.symbol)
    )


def lint_package():
    """Check the installed :mod:`repro` package source tree."""
    return lint_paths(None)
