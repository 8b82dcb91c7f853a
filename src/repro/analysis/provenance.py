"""Column provenance facts the plan-linter rules share.

Per node of a :class:`LogicalPlan` tree:

* **paths** — a ``$.child.left``-style locator for diagnostics,
* **constants** — columns pinned to a single value (by an ``Extend`` or an
  equality selection); a join whose every key pair is constant on both
  sides does not relate its inputs,
* **domains** — which dictionary domain a column carries
  (``subject`` / ``property`` / ``object`` / ``count``); joining a
  property-coded column against an entity-coded one compares oids from
  different vocabularies,
* **consumed** — which of a node's output columns any ancestor actually
  reads, mirroring the executors' needed-column propagation; a scan column
  nobody consumes is a projection-pushdown opportunity.

Subject- and object-coded columns share the entity value space (the
paper's q8 joins object against object, q5 walks object into subject), so
``subject`` vs ``object`` is *not* a domain mismatch; ``property`` and
``count`` columns live in their own domains.

The vertically-partitioned plans are wide (a 222-way union, ~700 nodes)
and every ad-hoc query pays for these facts, so the work is linear and
done once: one top-down sweep, dispatching on node type, indexes the tree
(pre-order node list, parents, the nodes bucketed by type for
:meth:`PlanFacts.nodes_of`) and propagates the consumed columns; the
bottom-up facts (constants, domains) are derived from the children's on
first request and kept, as is each node's column list
(:meth:`PlanFacts.columns_of` — a node derives it from its subtree on
every ``output_columns()`` call), and a path string is built only when a
diagnostic names the node.  All of it lives in the ``PlanFacts`` object
and goes with it: nothing is left on the plan for a plan cache to keep.
"""

from itertools import chain

from repro.plan import logical as L
from repro.plan.predicates import ColumnComparison, Comparison

#: Dictionary domains a column can carry.
SUBJECT = "subject"
PROPERTY = "property"
OBJECT = "object"
COUNT = "count"
UNKNOWN = "unknown"

#: Domains that share the entity value space: joins between them are fine.
ENTITY_DOMAINS = frozenset({SUBJECT, OBJECT})

_BASE_DOMAINS = {"subj": SUBJECT, "prop": PROPERTY, "obj": OBJECT}

_UNSET = object()


def _edge_label(parent, index):
    """The label of *parent*'s child slot *index*."""
    if isinstance(parent, L.Join):
        return ("left", "right")[index]
    if isinstance(parent, L.Union):
        return f"inputs[{index}]"
    return "child"


def _handler(table, node_type, default):
    """*table*'s entry for *node_type* or for its nearest base class."""
    for cls in node_type.__mro__:
        if cls in table:
            return table[cls]
    return default


class PlanFacts:
    """Shared per-node facts for one plan tree."""

    def __init__(self, plan):
        self.plan = plan
        self.parents = {}    # id(node) -> parent node (root absent)
        self.consumed = {}   # id(node) -> set of consumed output columns
        self._nodes = []     # every node, pre-order
        self._positions = {}  # node type -> its nodes' indices in _nodes
        self._slots = {}     # id(node) -> its child slot in its parent
        # Derived on first request, from the children's:
        self._paths = {id(plan): "$"}
        self._columns = {}        # id(node) -> output columns
        self._constants = {}      # id(node) -> {column: pinned value}
        self._domains = {}        # id(node) -> {column: domain}
        self._input_domains = {}  # id(Union) -> see input_domains_of
        self._index(plan)

    def _index(self, plan):
        """The top-down sweep: node list, type buckets, parents, and the
        consumed columns (mirroring the executors' pruning)."""
        nodes, positions = self._nodes, self._positions
        parents, slots, consumed = self.parents, self._slots, self.consumed
        handlers = {}
        stack = [(plan, None, 0, set(self.columns_of(plan)))]
        while stack:
            node, parent, slot, needed = stack.pop()
            key = id(node)
            if parent is not None:
                # A node object shared between two places of the tree is
                # located by the later one (as diagnostics always were).
                parents[key] = parent
                slots[key] = slot
            node_type = type(node)
            handler = handlers.get(node_type)
            if handler is None:
                handler = handlers[node_type] = _handler(
                    _CONSUMES, node_type, _consume_everything
                )
                positions[node_type] = []
            positions[node_type].append(len(nodes))
            nodes.append(node)
            mine = needed.intersection(self.columns_of(node))
            if key in consumed:
                consumed[key] |= mine
            else:
                consumed[key] = mine
            inputs = handler(self, node, needed)
            for slot in range(len(inputs) - 1, -1, -1):
                stack.append((inputs[slot][0], node, slot, inputs[slot][1]))

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------

    def path(self, node):
        key = id(node)
        path = self._paths.get(key)
        if path is None:
            parent = self.parents[key]
            label = _edge_label(parent, self._slots[key])
            path = self._paths[key] = f"{self.path(parent)}.{label}"
        return path

    def columns_of(self, node):
        """The node's output columns — asked of the node once per lint
        (a node derives them from its subtree on every call), so treat
        the list as read-only."""
        columns = self._columns.get(id(node))
        if columns is None:
            columns = self._columns[id(node)] = node.output_columns()
        return columns

    def constants_of(self, node):
        """``{column: value}`` for the output columns pinned to one value
        (which may be ``None``: a constant absent from the dictionary)."""
        constants = self._constants.get(id(node))
        if constants is None:
            derive = _handler(_CONSTANTS, type(node), _constants_passthrough)
            constants = self._constants[id(node)] = derive(self, node)
        return constants

    def domains_of(self, node):
        """``{column: domain}`` for the node's output columns."""
        domains = self._domains.get(id(node))
        if domains is None:
            derive = _handler(_DOMAINS, type(node), _domains_passthrough)
            domains = self._domains[id(node)] = derive(self, node)
        return domains

    def domain(self, node, column):
        return self.domains_of(node).get(column, UNKNOWN)

    def input_domains_of(self, union):
        """Per output position of *union*: ``{known domain: index of the
        first input whose column there carries it}``."""
        carried = self._input_domains.get(id(union))
        if carried is None:
            carried = [{} for _ in self.columns_of(union)]
            for i, branch in enumerate(union.inputs):
                domains = self.domains_of(branch)
                for found, column in zip(carried, self.columns_of(branch)):
                    found.setdefault(domains.get(column, UNKNOWN), i)
            for found in carried:
                found.pop(UNKNOWN, None)
            self._input_domains[id(union)] = carried
        return carried

    def consumed_of(self, node):
        return self.consumed.get(id(node), set())

    def parent(self, node):
        return self.parents.get(id(node))

    def nodes(self):
        """Every node, pre-order."""
        return iter(self._nodes)

    def nodes_of(self, *node_types):
        """The nodes that are instances of any of *node_types*, pre-order
        — what a rule that inspects only those types iterates."""
        found = [
            positions for node_type, positions in self._positions.items()
            if issubclass(node_type, node_types)
        ]
        if len(found) > 1:
            found = [sorted(chain.from_iterable(found))]
        nodes = self._nodes
        return [nodes[i] for positions in found for i in positions]


# ----------------------------------------------------------------------
# constants: node -> {column: pinned value}
# ----------------------------------------------------------------------

def _constants_passthrough(facts, node):
    # Having / Distinct / Sort / Limit: the child's, shared (facts are
    # read-only once derived; a handler that adds to one copies it first).
    # A Scan pins nothing.
    children = node.children()
    return facts.constants_of(children[0]) if children else {}


def _constants_select(facts, node):
    pinned = dict(facts.constants_of(node.child))
    for p in node.predicates:
        if isinstance(p, Comparison) and p.is_equality():
            pinned[p.column] = p.value
    return pinned


def _constants_extend(facts, node):
    pinned = dict(facts.constants_of(node.child))
    pinned[node.column] = node.value
    return pinned


def _constants_project(facts, node):
    child = facts.constants_of(node.child)
    if not child:
        return {}
    return {out: child[src] for out, src in node.mapping if src in child}


def _constants_join(facts, node):
    pinned = dict(facts.constants_of(node.left))
    pinned.update(facts.constants_of(node.right))
    return pinned


def _constants_group(facts, node):
    child = facts.constants_of(node.child)
    return {k: child[k] for k in node.keys if k in child}


def _constants_union(facts, node):
    """A column is pinned when every branch pins its column at that
    position, all to one value."""
    names = facts.columns_of(node)
    values = [_UNSET] * len(names)
    pinned = set(range(len(names)))  # positions still pinned to one value
    for branch in node.inputs:
        constants = facts.constants_of(branch)
        if not constants:
            return {}
        columns = facts.columns_of(branch)
        for position in tuple(pinned):
            value = constants.get(columns[position], _UNSET)
            if value is _UNSET:
                pinned.discard(position)
            elif values[position] is _UNSET:
                values[position] = value
            elif values[position] != value:
                pinned.discard(position)
        if not pinned:
            return {}
    return {names[position]: values[position] for position in sorted(pinned)}


_CONSTANTS = {
    L.Select: _constants_select,
    L.Extend: _constants_extend,
    L.Project: _constants_project,
    L.Join: _constants_join,
    L.GroupBy: _constants_group,
    L.Union: _constants_union,
}


# ----------------------------------------------------------------------
# domains: node -> {column: domain}
# ----------------------------------------------------------------------

def _domains_scan(facts, node):
    return {
        qualified: _BASE_DOMAINS.get(c, UNKNOWN)
        for qualified, c in zip(facts.columns_of(node), node.base_columns)
    }


def _domains_passthrough(facts, node):
    children = node.children()
    return facts.domains_of(children[0]) if children else {}


def _domains_project(facts, node):
    child = facts.domains_of(node.child)
    return {out: child.get(src, UNKNOWN) for out, src in node.mapping}


def _domains_extend(facts, node):
    domains = dict(facts.domains_of(node.child))
    # Extend's value is an opaque constant oid (a property tag in the
    # vertical plans, a literal in SQL): leave it undomained.
    domains[node.column] = UNKNOWN
    return domains


def _domains_join(facts, node):
    domains = dict(facts.domains_of(node.left))
    domains.update(facts.domains_of(node.right))
    return domains


def _domains_group(facts, node):
    child = facts.domains_of(node.child)
    domains = {k: child.get(k, UNKNOWN) for k in node.keys}
    domains[node.count_column] = COUNT
    for _func, src, out in node.aggregates:
        domains[out] = child.get(src, UNKNOWN)
    return domains


def _domains_union(facts, node):
    domains = {}
    for name, carried in zip(
        facts.columns_of(node), facts.input_domains_of(node)
    ):
        seen = set(carried)
        if len(seen) == 1:
            domains[name] = seen.pop()
        elif seen <= ENTITY_DOMAINS and seen:
            # Mixed subject/object branches: still entity-coded.
            domains[name] = OBJECT
        else:
            domains[name] = UNKNOWN
    return domains


_DOMAINS = {
    L.Scan: _domains_scan,
    L.Project: _domains_project,
    L.Extend: _domains_extend,
    L.Join: _domains_join,
    L.GroupBy: _domains_group,
    L.Union: _domains_union,
}


# ----------------------------------------------------------------------
# consumed: (node, columns needed above) -> [(child, columns needed of it)]
# ----------------------------------------------------------------------

def _consume_scan(facts, node, needed):
    return ()


def _consume_select(facts, node, needed):
    child_needed = set(needed)
    for p in node.predicates:
        if isinstance(p, ColumnComparison):
            child_needed.update(p.columns())
        else:
            child_needed.add(p.column)
    return ((node.child, child_needed),)


def _consume_project(facts, node, needed):
    kept = {i for o, i in node.mapping if o in needed}
    if not kept:
        kept = {node.mapping[0][1]}
    return ((node.child, kept),)


def _consume_join(facts, node, needed):
    left = needed.intersection(facts.columns_of(node.left))
    left.update(l for l, _ in node.on)
    right = needed.intersection(facts.columns_of(node.right))
    right.update(r for _, r in node.on)
    return ((node.left, left), (node.right, right))


def _consume_group(facts, node, needed):
    child_needed = set(node.keys)
    child_needed.update(src for _, src, _ in node.aggregates)
    if not child_needed:
        # A bare count(*) pulls one arbitrary column, like the executors
        # do; nothing is semantically consumed.
        child_needed = set(facts.columns_of(node.child)[:1])
    return ((node.child, child_needed),)


def _consume_having(facts, node, needed):
    return ((node.child, needed | {node.predicate.column}),)


def _consume_union(facts, node, needed):
    # UNION (distinct) compares whole rows, as Distinct does.
    keep = [
        i for i, name in enumerate(facts.columns_of(node))
        if node.distinct or name in needed
    ]
    if not keep:
        keep = [0]
    pairs = []
    for branch in node.inputs:
        columns = facts.columns_of(branch)
        pairs.append((branch, {columns[i] for i in keep}))
    return pairs


def _consume_distinct(facts, node, needed):
    # Duplicate elimination compares whole rows: every column counts.
    return ((node.child, set(facts.columns_of(node.child))),)


def _consume_extend(facts, node, needed):
    child_needed = needed - {node.column}
    if not child_needed:
        child_needed = set(facts.columns_of(node.child)[:1])
    return ((node.child, child_needed),)


def _consume_sort(facts, node, needed):
    return ((node.child, needed | {c for c, _ in node.keys}),)


def _consume_limit(facts, node, needed):
    return ((node.child, needed),)


def _consume_everything(facts, node, needed):
    # Future operators: assume everything is consumed.
    return [(child, set(facts.columns_of(child))) for child in node.children()]


_CONSUMES = {
    L.Scan: _consume_scan,
    L.Select: _consume_select,
    L.Project: _consume_project,
    L.Join: _consume_join,
    L.GroupBy: _consume_group,
    L.Having: _consume_having,
    L.Union: _consume_union,
    L.Distinct: _consume_distinct,
    L.Extend: _consume_extend,
    L.Sort: _consume_sort,
    L.Limit: _consume_limit,
}
