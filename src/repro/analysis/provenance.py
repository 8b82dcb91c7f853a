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

Every ad-hoc query over the vertically-partitioned store pays for these
facts, so the work is linear in the plan *as built*, not as expanded.
The 222-way property union is a template union (one branch plus a
binding per property table, see :class:`~repro.plan.logical.Union`), and
one top-down sweep, dispatching on node type, indexes the tree with each
template once — as the union's branch 0, which it is: pre-order node
list, parents, the nodes bucketed by type for :meth:`PlanFacts.nodes_of`,
and the consumed columns.  The union's own facts come from the template
and the bindings: its constants pin the Extend's column only if every
binding appends the same value, and its branches share the template's
domains.  The bottom-up facts (constants, domains) are derived from the
children's on first request and kept, and a path string is built only
when a diagnostic names the node.

A branch other than the template exists only in the union's expansion.
Asking about one of its nodes, or for :meth:`PlanFacts.nodes` (every
node), sweeps the expanded tree once; :meth:`PlanFacts.expanded` is the
facts of that tree, over which the linter re-runs a rule that found
something inside a template, so each branch's finding carries its own
path and text.  All of it lives in the ``PlanFacts`` object and goes with
it: nothing is left on the plan for a plan cache to keep.
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
    """Shared per-node facts for one plan tree.

    *expand* indexes every branch of a template union instead of its
    template once (what :meth:`expanded` builds).
    """

    def __init__(self, plan, expand=False):
        self.plan = plan
        self.parents = {}    # id(node) -> parent node (root absent)
        self.consumed = {}   # id(node) -> set of consumed output columns
        self._positions = {}  # node type -> its nodes' indices in _nodes
        self._slots = {}     # id(node) -> its child slot in its parent
        self._expand = expand
        self._templates = []  # the template unions, pre-order
        self._expanded = None  # the facts of the expanded tree, on demand
        # Derived on first request, from the children's:
        self._paths = {id(plan): "$"}
        self._constants = {}      # id(node) -> {column: pinned value}
        self._domains = {}        # id(node) -> {column: domain}
        self._input_domains = {}  # id(Union) -> see input_domains_of
        self._nodes = self._index(plan)  # pre-order, each template once

    def _index(self, plan):
        """The top-down sweep: node list, type buckets, parents, and the
        consumed columns (mirroring the executors' pruning)."""
        nodes, positions = [], self._positions
        parents, slots, consumed = self.parents, self._slots, self.consumed
        handlers = {}
        stack = [(plan, None, 0, set(plan._columns))]
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
            mine = needed.intersection(node._columns)
            if key in consumed:
                consumed[key] |= mine
            else:
                consumed[key] = mine
            inputs = handler(self, node, needed)
            for slot in range(len(inputs) - 1, -1, -1):
                stack.append((inputs[slot][0], node, slot, inputs[slot][1]))
        return nodes

    def expanded(self):
        """The facts of the plan with every template union expanded
        (``self`` when there is no template to expand)."""
        if not self._templates or self._expand:
            return self
        if self._expanded is None:
            self._expanded = PlanFacts(self.plan, expand=True)
        return self._expanded

    def template_paths(self):
        """The path of each template this sweep indexed once (a template
        union's branch 0)."""
        if self._expand:
            return []
        return [f"{self.path(union)}.inputs[0]" for union in self._templates]

    def _located(self, key):
        """The facts that located node *key*: these, or the expansion's
        for a node only the expansion holds."""
        if key in self.parents or key == id(self.plan):
            return self
        return self.expanded()

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------

    def path(self, node):
        key = id(node)
        path = self._paths.get(key)
        if path is None:
            facts = self._located(key)
            if facts is not self:
                return facts.path(node)
            parent = self.parents[key]
            label = _edge_label(parent, self._slots[key])
            path = self._paths[key] = f"{self.path(parent)}.{label}"
        return path

    def columns_of(self, node):
        """The node's output columns (the list the node keeps: treat it
        as read-only)."""
        return node._columns

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
            # Every branch of a template union carries the template's
            # domains (requalifying and the Extend value change none).
            branches = (
                (union.template,) if union.template is not None
                else union.inputs
            )
            for i, branch in enumerate(branches):
                domains = self.domains_of(branch)
                for found, column in zip(carried, self.columns_of(branch)):
                    found.setdefault(domains.get(column, UNKNOWN), i)
            for found in carried:
                found.pop(UNKNOWN, None)
            self._input_domains[id(union)] = carried
        return carried

    def input_columns_of(self, union):
        """Each branch's output columns, in branch order (a template
        union's derived from the template and the bindings)."""
        if union.template is None:
            return [self.columns_of(branch) for branch in union.inputs]
        first = self.columns_of(union.template)
        alias = union.bindings[0][1]
        old = f"{alias}."
        if alias is None or not any(c.startswith(old) for c in first):
            return [first] * len(union.bindings)
        return [first] + [
            [
                f"{new}.{c[len(old):]}" if c.startswith(old) else c
                for c in first
            ]
            for _, new, _ in union.bindings[1:]
        ]

    def consumed_of(self, node):
        key = id(node)
        return self._located(key).consumed.get(key, set())

    def parent(self, node):
        key = id(node)
        return self._located(key).parents.get(key)

    def nodes(self):
        """Every node of the plan, pre-order, every template union's
        branches expanded."""
        return iter(self.expanded()._nodes)

    def nodes_of(self, *node_types):
        """The nodes that are instances of any of *node_types*, pre-order
        — what a rule that inspects only those types iterates.  A
        template union's branch is here once, as its template."""
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
    if node.template is not None:
        return _constants_template_union(facts, node)
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


def _constants_template_union(facts, node):
    """A template's pinned column, unless the Extend pins it and the
    bindings do not all append one value."""
    template = node.template
    pinned = facts.constants_of(template)
    if not pinned:
        return {}
    values = {value for _, _, value in node.bindings}
    varying = _extend_pinned(template) if len(values) > 1 else ()
    return {
        column: pinned[column] for column in facts.columns_of(template)
        if column in pinned and column not in varying
    }


def _extend_pinned(template):
    """The template's output columns whose pinned value is its Extend's
    (an equality selection above the Extend re-pins its column)."""
    sourced = set()
    for node in reversed(L.template_chain(template)):
        if type(node) is L.Extend:
            sourced = {node.column}
        elif type(node) is L.Select:
            sourced -= {
                p.column for p in node.predicates
                if isinstance(p, Comparison) and p.is_equality()
            }
        elif type(node) is L.Project:
            sourced = {out for out, src in node.mapping if src in sourced}
    return sourced


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
    if node.template is not None and not facts._expand:
        facts._templates.append(node)
        branches = (node.template,)
    else:
        branches = node.inputs
    for branch in branches:
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
