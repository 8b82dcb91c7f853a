"""Pretty-printers for logical and physical plans.

:func:`render_plan` draws a logical tree (RDFStore.explain);
:func:`render_physical_plan` draws the engine-lowered physical tree the
unified execution layer runs (``repro profile``, ``repro analyze``).
"""

from repro.plan import logical as L


def render_plan(plan, max_union_branches=4, annotate=None):
    """Render a plan tree as indented text.

    Unions over hundreds of property tables (the vertically-partitioned
    full-scale queries) are elided after *max_union_branches* branches so
    the output stays readable; the elision line reports how many branches
    were hidden — which is itself the paper's point about those plans.

    *annotate*, when given, maps a node to extra text appended to its line
    (the EXPLAIN ANALYZE profiler attaches actual rows and I/O this way).
    """
    lines = []
    _render(plan, 0, lines, max_union_branches, annotate)
    return "\n".join(lines)


def describe_node(node):
    """One-line description of a plan node (public alias)."""
    return _describe(node)


def render_physical_plan(physical, max_union_branches=4, annotate=None):
    """Render a lowered physical tree as indented text.

    Each line shows the physical operator, its engine, and the logical
    node(s) it implements (fused nodes inline, e.g. the access paths that
    absorb a Select into their Scan).  Union elision follows
    :func:`render_plan`.  *annotate*, when given, maps a *physical* node
    to extra text (the profiler attaches est/actual rows this way).
    """
    lines = []
    _render_physical(physical, 0, lines, max_union_branches, annotate)
    return "\n".join(lines)


def describe_physical_node(pnode):
    """One-line description of a physical node."""
    described = " + ".join(_describe(n) for n in pnode.logical_nodes())
    return f"{pnode.name} [{pnode.engine}] :: {described}"


def _render_physical(pnode, depth, lines, max_union_branches, annotate=None):
    indent = "  " * depth
    suffix = annotate(pnode) if annotate else ""
    lines.append(f"{indent}{describe_physical_node(pnode)}{suffix}")
    children = pnode.children
    if (
        isinstance(pnode.logical, L.Union)
        and len(children) > max_union_branches
    ):
        shown = children[:max_union_branches]
        for child in shown:
            _render_physical(
                child, depth + 1, lines, max_union_branches, annotate
            )
        lines.append(
            f"{indent}  ... {len(children) - len(shown)} more union branches"
        )
        return
    for child in children:
        _render_physical(
            child, depth + 1, lines, max_union_branches, annotate
        )


def _render(node, depth, lines, max_union_branches, annotate=None):
    indent = "  " * depth
    suffix = annotate(node) if annotate else ""
    lines.append(f"{indent}{_describe(node)}{suffix}")
    children = node.children()
    if isinstance(node, L.Union) and len(children) > max_union_branches:
        shown = children[:max_union_branches]
        for child in shown:
            _render(child, depth + 1, lines, max_union_branches, annotate)
        lines.append(
            f"{indent}  ... {len(children) - len(shown)} more union branches"
        )
        return
    for child in children:
        _render(child, depth + 1, lines, max_union_branches, annotate)


def _describe(node):
    if isinstance(node, L.Scan):
        alias = f" AS {node.alias}" if node.alias else ""
        return f"Scan {node.table}{alias} [{', '.join(node.base_columns)}]"
    if isinstance(node, L.Select):
        from repro.plan.predicates import is_column_comparison

        parts = []
        for p in node.predicates:
            if is_column_comparison(p):
                parts.append(f"{p.left} {p.op} {p.right}")
            else:
                parts.append(f"{p.column} {p.op} {p.value}")
        return f"Select {' AND '.join(parts)}"
    if isinstance(node, L.Project):
        cols = ", ".join(
            o if o == i else f"{i} AS {o}" for o, i in node.mapping
        )
        return f"Project {cols}"
    if isinstance(node, L.Join):
        on = " AND ".join(f"{l} = {r}" for l, r in node.on)
        return f"Join {on}"
    if isinstance(node, L.GroupBy):
        keys = ", ".join(node.keys) or "()"
        return f"GroupBy {keys} -> count(*) AS {node.count_column}"
    if isinstance(node, L.Having):
        p = node.predicate
        return f"Having {p.column} {p.op} {p.value}"
    if isinstance(node, L.Union):
        kind = "Union" if node.distinct else "UnionAll"
        return f"{kind} ({node.n_inputs} branches)"
    if isinstance(node, L.Distinct):
        return "Distinct"
    if isinstance(node, L.Extend):
        return f"Extend {node.column} = {node.value}"
    return type(node).__name__
