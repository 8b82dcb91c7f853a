"""The engine-keyed physical-operator registry and the lowering pass.

An engine contributes an :class:`EngineOperatorSet`: an ordered list of
:class:`OperatorDef` entries, each pairing a *match* function (does this
operator implement this logical node, and which logical children remain to
be lowered?) with an execution function.  :func:`lower_plan` walks a
logical tree top-down, binds the first matching operator per node — first
match wins, so engines register their fused/fast operators before the
generic ones — and emits the :class:`~repro.exec.physical.PhysicalPlan`
tree the shared :class:`~repro.exec.runtime.Runtime` drives.

A match function declares the logical node types it can accept as
``match.node_types`` (:func:`match_type` and :func:`matches` set it), and
lowering only offers a node to the operators that declared its type: a
700-node vertically-partitioned plan is not tried against every one of
the engine's rules per node.  A match function that declares nothing is
offered every node, so registrations written before the declaration
existed keep working.

Engines under this package's management:

* ``column-store`` — vector paradigm (:mod:`repro.colstore.operators`),
* ``row-store`` — pull paradigm (:mod:`repro.rowstore.operators`).

Registration is import-driven; :func:`engine_ops` lazily imports the
module listed in :data:`ENGINE_MODULES` the first time an engine key is
looked up, so ``import repro.plan`` stays light.
"""

import importlib

from repro.errors import EngineError
from repro.exec.physical import PhysicalPlan
from repro.observe.race import guard_lock, shared_state

#: engine key -> module that registers its operator set on import.
ENGINE_MODULES = {
    "column-store": "repro.colstore.operators",
    "row-store": "repro.rowstore.operators",
}

#: Execution paradigms the runtime knows how to drive.
PARADIGMS = ("vector", "pull")

#: engine key -> EngineOperatorSet.  Registration is import-driven, but
#: imports can race when the query server's thread pool first touches two
#: engines at once — mutate only under the lock.
_REGISTRY_LOCK = guard_lock("exec.registry._REGISTRY")
_REGISTRY = shared_state(  # guarded-by: _REGISTRY_LOCK
    "exec.registry._REGISTRY", {}, _REGISTRY_LOCK,
)


class Lowered:
    """A match outcome: which logical children still need lowering, which
    extra logical nodes the operator absorbed (fusion), free-form details
    for EXPLAIN."""

    __slots__ = ("children", "fused", "details")

    def __init__(self, children=(), fused=(), details=None):
        self.children = tuple(children)
        self.fused = tuple(fused)
        self.details = details


class OperatorDef:
    """One physical operator: its name, lowering match, and execution fn.

    *guard* optionally restricts the operator to engine instances whose
    physical state supports it (e.g. a compressed-kernel operator that
    needs the scanned segment to carry an RLE codec).  Guarded operators
    are skipped when lowering without an instance, so engine-keyed
    lowering stays deterministic.
    """

    __slots__ = ("name", "engine", "match", "fn", "description", "guard")

    def __init__(self, name, engine, match, fn, description="", guard=None):
        self.name = name
        self.engine = engine
        self.match = match
        self.fn = fn
        self.description = description
        self.guard = guard

    def __repr__(self):
        return f"OperatorDef({self.engine}/{self.name})"


class EngineOperatorSet:
    """Ordered operator registry for one engine."""

    def __init__(self, engine, paradigm):
        if paradigm not in PARADIGMS:
            raise EngineError(
                f"unknown paradigm {paradigm!r}; expected one of {PARADIGMS}"
            )
        self.engine = engine
        self.paradigm = paradigm
        self.rules = []
        with _REGISTRY_LOCK:
            if engine in _REGISTRY:
                raise EngineError(
                    f"operator set for engine {engine!r} already registered"
                )
            _REGISTRY[engine] = self

    def operator(self, name, match, description="", guard=None):
        """Decorator: register the wrapped fn as operator *name*.

        *match* maps a logical node to a :class:`Lowered` (or ``None`` for
        no match).  Registration order is priority order.  *guard*, when
        given, maps ``(engine_instance, node)`` to a bool; the rule only
        applies when lowering knows the instance and the guard accepts.
        """

        def register(fn):
            self.rules.append(
                OperatorDef(name, self.engine, match, fn, description,
                            guard=guard)
            )
            return fn

        return register

    def operator_names(self):
        return [rule.name for rule in self.rules]


def matches(*node_types):
    """Decorator declaring that a match function (and its operator's
    guard) can only accept instances of *node_types*."""

    def declare(match):
        match.node_types = node_types
        return match

    return declare


def match_type(*node_types):
    """A match function accepting the given logical node types, lowering
    every logical child."""

    @matches(*node_types)
    def match(node):
        if isinstance(node, node_types):
            return Lowered(children=node.children())
        return None

    return match


def engine_ops(engine):
    """The operator set for *engine*, importing its module on first use."""
    ops = _REGISTRY.get(engine)
    if ops is not None:
        return ops
    module = ENGINE_MODULES.get(engine)
    if module is not None:
        importlib.import_module(module)
        ops = _REGISTRY.get(engine)
        if ops is not None:
            return ops
    raise EngineError(
        f"no physical operators registered for engine {engine!r}; "
        f"known engines: {sorted(set(_REGISTRY) | set(ENGINE_MODULES))}"
    )


def registered_engines():
    """Engine keys with an operator set available (forces lazy imports)."""
    for engine in ENGINE_MODULES:
        try:
            engine_ops(engine)
        except EngineError:  # pragma: no cover - import-failure guard
            pass
    return sorted(_REGISTRY)


def _declares(opdef, node_type):
    node_types = getattr(opdef.match, "node_types", None)
    return node_types is None or issubclass(node_type, node_types)


def lower_plan(plan, engine, instance=None):
    """Lower a logical plan to a physical tree for *engine*.

    Every logical node binds the first registered operator whose match
    accepts it; an unmatched node is an :class:`EngineError` naming the
    engine — the unified-layer replacement for the legacy executors'
    ``cannot execute`` dispatch failures.

    *instance*, when given, is the live engine object; operators with a
    ``guard`` are considered only when their guard accepts it (without an
    instance, guarded operators never match).
    """
    rules = engine_ops(engine).rules
    if instance is None:
        rules = [opdef for opdef in rules if opdef.guard is None]
    by_type = {}  # node type -> the rules that may accept it, in order

    def lower(node):
        candidates = by_type.get(type(node))
        if candidates is None:
            candidates = by_type[type(node)] = [
                opdef for opdef in rules if _declares(opdef, type(node))
            ]
        for opdef in candidates:
            if opdef.guard is not None and not opdef.guard(instance, node):
                continue
            lowered = opdef.match(node)
            if lowered is None:
                continue
            children = tuple(lower(child) for child in lowered.children)
            return PhysicalPlan(
                opdef, engine, node,
                children=children,
                fused=lowered.fused,
                details=lowered.details,
            )
        raise EngineError(
            f"{engine} has no physical operator for {type(node).__name__}"
        )

    return lower(plan)
