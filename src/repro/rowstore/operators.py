"""Tuple-at-a-time physical operators (pull paradigm).

The row store's operator set for the unified execution layer
(:mod:`repro.exec`).  Physical plan construction follows what the paper
describes observing in DBX's plans:

* selections bind as long an equality prefix of an index as possible; the
  clustered index wins ties (no heap re-fetch),
* joins run as index nested loops when one side is a base table with an
  index leading on the join column, hash joins otherwise,
* everything else (grouping, having, union, distinct) is pipelined/
  materialized tuple-at-a-time with row-store CPU costs.

Operator functions return lazy :class:`~repro.exec.runtime.Stream` trees;
the work happens inside generators while a parent pulls, and the shared
runtime brackets every pull with the bound logical node's trace span.
"""

from repro.exec.common import (
    MISSING_VALUE,
    extend_fill_value,
    group_unit_cost,
    sort_cost,
    update_accumulator,
)
from repro.exec.registry import (
    EngineOperatorSet,
    Lowered,
    match_type,
    matches,
)
from repro.exec.runtime import Stream
from repro.plan import logical as L
from repro.plan.predicates import is_column_comparison

#: Upper bound on outer cardinality for index nested loops.
INL_MAX_OUTER = 20_000

ROW_OPS = EngineOperatorSet("row-store", paradigm="pull")


# ---------------------------------------------------------------------------
# base-table access
# ---------------------------------------------------------------------------

def _base_column(scan, qualified):
    if scan.alias and qualified.startswith(scan.alias + "."):
        return qualified[len(scan.alias) + 1 :]
    return qualified


def _access_path(rt, scan, predicates):
    table = rt.engine.table(scan.table)
    out_columns = scan.output_columns()

    cross_preds = [
        (
            table.column_position(_base_column(scan, p.left)),
            table.column_position(_base_column(scan, p.right)),
            p,
        )
        for p in predicates
        if is_column_comparison(p)
    ]
    predicates = [p for p in predicates if not is_column_comparison(p)]
    base_preds = [(_base_column(scan, p.column), p) for p in predicates]
    # An equality against a constant missing from the dictionary can
    # never match: empty stream, no I/O.
    if any(p.value is None and p.is_equality() for _, p in base_preds):
        return Stream(out_columns, iter(()))

    eq_values = {}
    for col, p in base_preds:
        if p.is_equality() and col not in eq_values:
            eq_values[col] = p.value

    index, prefix_len = _choose_index(table, set(eq_values))
    if index is None:
        return _seq_scan(rt, table, scan, base_preds, cross_preds)
    prefix = tuple(eq_values[c] for c in index.key_columns[:prefix_len])
    # Only the specific predicate instances bound into the prefix are
    # satisfied by the index range; any further equality on the same
    # column (e.g. the contradictory ``x = 0 AND x = 3``) must stay a
    # residual filter.
    consumed_ids = set()
    for key_column in index.key_columns[:prefix_len]:
        for col, p in base_preds:
            if (
                id(p) not in consumed_ids
                and p.is_equality()
                and col == key_column
                and p.value == eq_values[key_column]
            ):
                consumed_ids.add(id(p))
                break
    residual = [
        (col, p) for col, p in base_preds if id(p) not in consumed_ids
    ]
    return _index_scan(rt, table, scan, index, prefix, residual, cross_preds)


def _choose_index(table, eq_columns):
    """Pick an access path: the clustered index whenever it binds any
    equality prefix, else the secondary with the longest prefix.

    Clustered-first mirrors what the paper observed in DBX's plans
    ("the beneficial impact of the PSO clustering; the remaining
    indices have little impact", Section 4.3): a clustered range is a
    sequential heap read, while a secondary pays one scattered heap
    fetch per match.
    """
    best = None
    for index in table.all_indexes():
        k = index.equality_prefix_length(eq_columns)
        if k == 0:
            continue
        rank = (1 if index.clustered else 0, k)
        if best is None or rank > best[0]:
            best = (rank, index)
    if best is None:
        return None, 0
    return best[1], best[0][1]


def _seq_scan(rt, table, scan, base_preds, cross_preds=()):
    out_columns = scan.output_columns()
    # Physical rows carry every table column; the scan may expose a
    # subset (e.g. one property column of the wide property table), so
    # project each emitted tuple to the declared columns.
    emit = [table.column_position(c) for c in scan.base_columns]

    def generate():
        rt.pool.read_segment(table.heap_segment)
        costs, clock = rt.costs, rt.clock
        preds = [(table.column_position(col), p) for col, p in base_preds]
        for row in table.rows:
            clock.charge_cpu(costs.scan_tuple)
            ok = True
            for pos, p in preds:
                clock.charge_cpu(costs.select_tuple)
                if not p.evaluate(row[pos]):
                    ok = False
                    break
            if ok:
                for left, right, p in cross_preds:
                    clock.charge_cpu(costs.select_tuple)
                    if not p.evaluate(row[left], row[right]):
                        ok = False
                        break
            if ok:
                yield tuple(row[i] for i in emit)

    return Stream(out_columns, generate())


def _index_scan(rt, table, scan, index, prefix, residual, cross_preds=()):
    out_columns = scan.output_columns()
    emit = [table.column_position(c) for c in scan.base_columns]

    def generate():
        row_ids = [rid for _, rid in index.tree.prefix_scan(prefix)]
        if not row_ids:
            return
        if index.clustered:
            lo, hi = min(row_ids), max(row_ids) + 1
            first, last = table.heap_pages_of_range(lo, hi)
            rt.pool.read_pages(table.heap_segment, range(first, last))
        else:
            pages = sorted({table.heap_page_of_row(rid) for rid in row_ids})
            rt.pool.read_pages(table.heap_segment, pages, scattered=True)
        costs, clock = rt.costs, rt.clock
        preds = [(table.column_position(col), p) for col, p in residual]
        for rid in row_ids:
            clock.charge_cpu(costs.scan_tuple)
            row = table.rows[rid]
            ok = True
            for pos, p in preds:
                clock.charge_cpu(costs.select_tuple)
                if not p.evaluate(row[pos]):
                    ok = False
                    break
            if ok:
                for left, right, p in cross_preds:
                    clock.charge_cpu(costs.select_tuple)
                    if not p.evaluate(row[left], row[right]):
                        ok = False
                        break
            if ok:
                yield tuple(row[i] for i in emit)

    return Stream(out_columns, generate())


@matches(L.Select, L.Scan)
def _match_access_path(node):
    if isinstance(node, L.Select) and isinstance(node.child, L.Scan):
        return Lowered(fused=(node.child,))
    if isinstance(node, L.Scan):
        return Lowered()
    return None


@ROW_OPS.operator(
    "access-path", _match_access_path,
    "heuristic base-table access: longest equality index prefix "
    "(clustered wins ties) with residual filters, else a heap scan",
)
def access_path(rt, pnode):
    node = pnode.logical
    if isinstance(node, L.Select):
        return _access_path(rt, node.child, node.predicates)
    return _access_path(rt, node, [])


# ---------------------------------------------------------------------------
# pipelined operators
# ---------------------------------------------------------------------------

def _filter(rt, stream, predicates):
    compiled = []
    for p in predicates:
        if is_column_comparison(p):
            compiled.append(
                (stream.position(p.left), stream.position(p.right), p)
            )
        else:
            compiled.append((stream.position(p.column), None, p))

    def generate():
        costs, clock = rt.costs, rt.clock
        for row in stream:
            ok = True
            for left, right, p in compiled:
                clock.charge_cpu(costs.select_tuple)
                if right is None:
                    if not p.evaluate(row[left]):
                        ok = False
                        break
                elif not p.evaluate(row[left], row[right]):
                    ok = False
                    break
            if ok:
                yield row

    return Stream(stream.columns, generate())


@ROW_OPS.operator(
    "filter", match_type(L.Select),
    "tuple-at-a-time predicate evaluation over a pipelined input",
)
def filter_(rt, pnode):
    return _filter(rt, rt.build_child(pnode.children[0]),
                   pnode.logical.predicates)


@ROW_OPS.operator(
    "filter", match_type(L.Having),
    "group filter: the Having predicate as a pipelined filter",
)
def having_filter(rt, pnode):
    return _filter(rt, rt.build_child(pnode.children[0]),
                   [pnode.logical.predicate])


@ROW_OPS.operator(
    "project", match_type(L.Project),
    "per-tuple column projection/rename",
)
def project(rt, pnode):
    stream = rt.build_child(pnode.children[0])
    mapping = pnode.logical.mapping
    positions = [stream.position(i) for _, i in mapping]

    def generate():
        for row in stream:
            yield tuple(row[p] for p in positions)

    return Stream([o for o, _ in mapping], generate())


# ---------------------------------------------------------------------------
# joins
# ---------------------------------------------------------------------------

def _inner_candidate(rt, child, join_col):
    """(scan, predicates, table, index) when *child* is a base access
    with an index leading on the join column."""
    if isinstance(child, L.Select) and isinstance(child.child, L.Scan):
        scan, predicates = child.child, child.predicates
        if any(is_column_comparison(p) for p in predicates):
            return None
    elif isinstance(child, L.Scan):
        scan, predicates = child, []
    else:
        return None
    base_col = _base_column(scan, join_col)
    table = rt.engine.table(scan.table)
    best = None
    for index in table.all_indexes():
        if index.key_columns[0] != base_col:
            continue
        if best is None or (index.clustered and not best.clustered):
            best = index
    if best is None:
        return None
    return scan, predicates, table, best


def _index_nested_loop(rt, outer, outer_col, scan, inner_preds,
                       table, index, swap):
    outer_pos = outer.position(outer_col)
    inner_columns = scan.output_columns()
    if swap:
        out_columns = inner_columns + outer.columns
    else:
        out_columns = outer.columns + inner_columns
    base_preds = [
        (table.column_position(_base_column(scan, p.column)), p)
        for p in inner_preds
    ]
    emit = [table.column_position(c) for c in scan.base_columns]

    def generate():
        costs, clock = rt.costs, rt.clock
        for outer_row in outer:
            value = outer_row[outer_pos]
            row_ids = [rid for _, rid in index.tree.prefix_scan((value,))]
            if not row_ids:
                continue
            if index.clustered:
                lo, hi = min(row_ids), max(row_ids) + 1
                first, last = table.heap_pages_of_range(lo, hi)
                rt.pool.read_pages(table.heap_segment, range(first, last))
            else:
                pages = sorted(
                    {table.heap_page_of_row(rid) for rid in row_ids}
                )
                rt.pool.read_pages(
                    table.heap_segment, pages, scattered=True
                )
            for rid in row_ids:
                clock.charge_cpu(costs.scan_tuple)
                row = table.rows[rid]
                ok = True
                for pos, p in base_preds:
                    clock.charge_cpu(costs.select_tuple)
                    if not p.evaluate(row[pos]):
                        ok = False
                        break
                if not ok:
                    continue
                clock.charge_cpu(costs.union_tuple)
                inner_row = tuple(row[i] for i in emit)
                if swap:
                    yield inner_row + outer_row
                else:
                    yield outer_row + inner_row

    return Stream(out_columns, generate())


def _hash_join_streams(rt, left, right, on):
    left_rows = list(left)
    right_rows = list(right)
    lpos = [left.position(l) for l, _ in on]
    rpos = [right.position(r) for _, r in on]
    costs, clock = rt.costs, rt.clock

    if len(left_rows) <= len(right_rows):
        build_rows, build_pos = left_rows, lpos
        probe_rows, probe_pos = right_rows, rpos
        build_is_left = True
    else:
        build_rows, build_pos = right_rows, rpos
        probe_rows, probe_pos = left_rows, lpos
        build_is_left = False

    def generate():
        table = {}
        for row in build_rows:
            clock.charge_cpu(costs.hash_build)
            table.setdefault(
                tuple(row[p] for p in build_pos), []
            ).append(row)
        for row in probe_rows:
            clock.charge_cpu(costs.hash_probe)
            matches = table.get(tuple(row[p] for p in probe_pos), ())
            for match in matches:
                clock.charge_cpu(costs.union_tuple)
                if build_is_left:
                    yield match + row
                else:
                    yield row + match

    return Stream(left.columns + right.columns, generate())


@ROW_OPS.operator(
    "adaptive-join", match_type(L.Join),
    "index nested loops when an inner index leads on the join column and "
    "the materialized outer is small enough, hash join otherwise "
    "(policy via the runtime's join_strategy knob)",
)
def adaptive_join(rt, pnode):
    node = pnode.logical
    left_pnode, right_pnode = pnode.children
    if rt.join_strategy != "hash" and len(node.on) == 1:
        (lcol, rcol), = node.on
        for inner_pnode, inner_col, outer_pnode, outer_col, swap in (
            (right_pnode, rcol, left_pnode, lcol, False),
            (left_pnode, lcol, right_pnode, rcol, True),
        ):
            inner = _inner_candidate(rt, inner_pnode.logical, inner_col)
            if inner is None:
                continue
            scan, inner_preds, table, index = inner
            # Materialize the outer to learn its cardinality: a small
            # outer probes the index; a large one would touch more pages
            # than a scan, so the optimizer falls back to a hash join.
            outer = rt.build_child(outer_pnode)
            rows = list(outer)
            materialized = Stream(outer.columns, iter(rows))
            # Cost rule: each probe touches ~(height + 1) pages cold, so
            # prefer the index only when that upper bound beats a scan.
            probe_pages = 1 + index.tree.height()
            probed_bytes = (
                len(rows) * probe_pages * table.heap_segment.page_size
            )
            if rt.join_strategy == "inl" or (
                len(rows) <= INL_MAX_OUTER
                and probed_bytes < max(table.heap_segment.nbytes, 1)
            ):
                return _index_nested_loop(
                    rt, materialized, outer_col, scan, inner_preds,
                    table, index, swap=swap,
                )
            inner_stream = rt.build_child(inner_pnode)
            if swap:
                return _hash_join_streams(
                    rt, inner_stream, materialized, [(lcol, rcol)]
                )
            return _hash_join_streams(
                rt, materialized, inner_stream, [(lcol, rcol)]
            )
    left = rt.build_child(left_pnode)
    right = rt.build_child(right_pnode)
    return _hash_join_streams(rt, left, right, node.on)


# ---------------------------------------------------------------------------
# grouping, union, distinct
# ---------------------------------------------------------------------------

@ROW_OPS.operator(
    "hash-group", match_type(L.GroupBy),
    "hash aggregation (count/min/max) with sorted group emission",
)
def hash_group(rt, pnode):
    node = pnode.logical
    child = rt.build_child(pnode.children[0])
    positions = [child.position(k) for k in node.keys]
    agg_specs = [
        (func, child.position(input_column))
        for func, input_column, _ in node.aggregates
    ]
    costs, clock = rt.costs, rt.clock
    row_charge = group_unit_cost(costs, len(agg_specs))

    def generate():
        counts = {}
        accumulators = {}
        n_rows = 0
        for row in child:
            n_rows += 1
            clock.charge_cpu(row_charge)
            key = tuple(row[p] for p in positions)
            counts[key] = counts.get(key, 0) + 1
            if agg_specs:
                current = accumulators.get(key)
                if current is None:
                    accumulators[key] = [row[pos] for _, pos in agg_specs]
                else:
                    for i, (func, pos) in enumerate(agg_specs):
                        current[i] = update_accumulator(
                            func, current[i], row[pos]
                        )
        if not node.keys:
            aggregates = tuple(
                accumulators.get((), [MISSING_VALUE] * len(agg_specs))
            ) if agg_specs else ()
            yield (n_rows,) + tuple(aggregates)
            return
        for key in sorted(counts):
            aggregates = tuple(accumulators[key]) if agg_specs else ()
            yield key + (counts[key],) + aggregates

    return Stream(node.output_columns(), generate())


@ROW_OPS.operator(
    "pull-union", match_type(L.Union),
    "concatenate branch streams one at a time (seen-set for distinct)",
)
def pull_union(rt, pnode):
    node = pnode.logical
    out_columns = node.inputs[0].output_columns()
    costs, clock = rt.costs, rt.clock

    def generate():
        seen = set() if node.distinct else None
        for child_pnode in pnode.children:
            stream = rt.build_child(child_pnode)
            for row in stream:
                clock.charge_cpu(costs.union_tuple)
                if seen is None:
                    yield row
                elif row not in seen:
                    seen.add(row)
                    yield row

    return Stream(out_columns, generate())


@ROW_OPS.operator(
    "extend", match_type(L.Extend),
    "append a constant to every tuple",
)
def extend(rt, pnode):
    stream = rt.build_child(pnode.children[0])
    node = pnode.logical
    value = extend_fill_value(node.value)

    def generate():
        for row in stream:
            yield row + (value,)

    return Stream(stream.columns + [node.column], generate())


@ROW_OPS.operator(
    "tuple-sort", match_type(L.Sort),
    "materialize and stable-sort tuples, last key first",
)
def tuple_sort(rt, pnode):
    stream = rt.build_child(pnode.children[0])
    node = pnode.logical
    positions = [(stream.position(c), d == "desc") for c, d in node.keys]
    costs, clock = rt.costs, rt.clock

    def generate():
        rows = list(stream)
        clock.charge_cpu(sort_cost(costs, len(rows)))
        # Stable sorts applied last-key-first realize mixed asc/desc.
        for pos, descending in reversed(positions):
            rows.sort(key=lambda r: r[pos], reverse=descending)
        yield from rows

    return Stream(stream.columns, generate())


@ROW_OPS.operator(
    "limit", match_type(L.Limit),
    "stop pulling after n tuples",
)
def limit(rt, pnode):
    stream = rt.build_child(pnode.children[0])
    node = pnode.logical

    def generate():
        remaining = node.n
        for row in stream:
            if remaining <= 0:
                return
            remaining -= 1
            yield row

    return Stream(stream.columns, generate())


@ROW_OPS.operator(
    "tuple-distinct", match_type(L.Distinct),
    "seen-set deduplication, pipelined",
)
def tuple_distinct(rt, pnode):
    stream = rt.build_child(pnode.children[0])
    costs, clock = rt.costs, rt.clock

    def generate():
        seen = set()
        for row in stream:
            clock.charge_cpu(costs.group_tuple)
            if row not in seen:
                seen.add(row)
                yield row

    return Stream(stream.columns, generate())
