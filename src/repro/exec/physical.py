"""Physical plan nodes.

A :class:`PhysicalPlan` node binds one *physical operator* — an entry of
the engine-keyed registry (:mod:`repro.exec.registry`) — to the logical
node (or fused node group) it implements.  Where logical nodes answer
"what relation is this?", physical nodes answer "which engine code runs,
and over which children?".

Physical trees are produced by :func:`repro.exec.registry.lower_plan` and
consumed by :class:`repro.exec.runtime.Runtime`.  They are deliberately
*thin*: no execution state lives here, so one physical tree can be run
many times (the benchmark's cold/hot protocol) and rendered/linted without
an engine at hand.  Unlike logical nodes they are not sealed — the
profiler annotates ``estimated_rows`` in place, and an operator may keep
in ``prepared`` what it resolves once per lowered plan rather than once
per run (catalog lookups; the lowered-plan cache is dropped on DDL) — but
the bound logical nodes stay immutable, so sharing them between the
logical and physical trees is sound.

Fusion convention: an operator that implements several logical nodes at
once (the engines fuse ``Select(Scan)`` into one access path) binds the
*top* node as :attr:`PhysicalPlan.logical` and records the absorbed ones
in :attr:`PhysicalPlan.fused`; the subtree below the fused group becomes
the node's children.
"""


class PhysicalPlan:
    """One physical operator bound to the logical subtree it implements."""

    __slots__ = (
        "op", "engine", "logical", "fused", "children", "details",
        "estimated_rows", "prepared",
    )

    def __init__(self, op, engine, logical, children=(), fused=(),
                 details=None):
        self.op = op
        self.engine = engine
        self.logical = logical
        self.fused = tuple(fused)
        self.children = tuple(children)
        self.details = dict(details) if details else {}
        self.estimated_rows = None
        self.prepared = None

    @property
    def name(self):
        """Physical operator name (e.g. ``scan+select``, ``adaptive-join``)."""
        return self.op.name

    def output_columns(self):
        """Physical output equals the bound logical node's output."""
        return self.logical.output_columns()

    def logical_nodes(self):
        """Every logical node this operator implements (top first)."""
        return (self.logical,) + self.fused

    def __repr__(self):
        return (
            f"PhysicalPlan({self.name!r}, engine={self.engine!r}, "
            f"logical={type(self.logical).__name__})"
        )


def walk_physical(plan):
    """Yield every physical node, pre-order."""
    yield plan
    for child in plan.children:
        yield from walk_physical(child)


def count_physical_operators(plan):
    """Number of physical operators in the tree (fused groups count once)."""
    return sum(1 for _ in walk_physical(plan))
