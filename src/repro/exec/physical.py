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
an engine at hand.  What an operator resolves from the catalog once
rather than per run lives in the runtime (``Runtime.resolved``), except
what belongs to one node alone — a fused column-store scan's charge
list, a row-store access path's rows and charge list — which the node
keeps in :attr:`PhysicalPlan.resolved`; both are dropped with the
lowered trees on DDL (``Runtime.forget_lowered``).
Unlike logical nodes they are not sealed — the profiler annotates
``estimated_rows`` in place — but the bound logical nodes stay
immutable, so sharing them between the logical and physical trees is
sound.

A template union (:class:`~repro.plan.logical.Union` built from one
branch and per-branch bindings) lowers its template once: the node keeps
the template's physical tree in :attr:`PhysicalPlan.template`, and its
:attr:`~PhysicalPlan.children` — one lowered tree per branch — are built
the first time something walks them (EXPLAIN, a physical lint, the row
engine, the column store's generic run of a non-canonical template).

Fusion convention: an operator that implements several logical nodes at
once (the engines fuse ``Select(Scan)`` into one access path) binds the
*top* node as :attr:`PhysicalPlan.logical` and records the absorbed ones
in :attr:`PhysicalPlan.fused`; the subtree below the fused group becomes
the node's children.
"""


class PhysicalPlan:
    """One physical operator bound to the logical subtree it implements."""

    __slots__ = (
        "op", "engine", "logical", "fused", "_children", "details",
        "estimated_rows", "template", "_lower", "resolved",
    )

    def __init__(self, op, engine, logical, children=(), fused=(),
                 details=None, template=None, lower=None):
        self.op = op
        self.engine = engine
        self.logical = logical
        self.fused = tuple(fused)
        self.details = dict(details) if details else {}
        self.estimated_rows = None
        #: What the operator resolved for this node from the catalog of
        #: the engine that lowered it (``None`` until its first run).
        self.resolved = None
        #: A template union's lowered template, and the lowering that
        #: builds its other branches on demand.
        self.template = template
        self._lower = lower
        self._children = None if template is not None else tuple(children)

    @property
    def children(self):
        """The physical children (a template union's, one per branch,
        lowered on first use)."""
        children = self._children
        if children is None:
            lower = self._lower
            children = self._children = (self.template,) + tuple(
                lower(branch) for branch in self.logical.inputs[1:]
            )
        return children

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
    stack = [plan]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


def count_physical_operators(plan):
    """Number of physical operators in the tree (fused groups count once)."""
    return sum(1 for _ in walk_physical(plan))
