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

Per-tuple work stays out of the interpreter where it can: CPU charges
are appended to the clock's ordered pending log
(:meth:`~repro.engine.clock.QueryClock.cpu_log` — same charges, same
order, folded exactly), and tuples are reshaped by one C-level callable
built once per stream (:func:`_row_shaper`).
"""

from operator import itemgetter

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


def _row_shaper(positions):
    """C-level ``row -> tuple(row[p] for p in positions)``, built once per
    stream.  Rows are tuples, so a slice getter covers the widths where
    ``itemgetter`` would return a bare value (one column) or refuse to be
    built (none)."""
    if len(positions) > 1:
        return itemgetter(*positions)
    if positions:
        return itemgetter(slice(positions[0], positions[0] + 1))
    return itemgetter(slice(0, 0))


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
    shape = _row_shaper([table.column_position(c) for c in scan.base_columns])
    charge = rt.clock.cpu_log()

    def generate():
        rt.pool.read_segment(table.heap_segment)
        scan_tuple, select_tuple = rt.costs.scan_tuple, rt.costs.select_tuple
        preds = [(table.column_position(col), p) for col, p in base_preds]
        for row in table.rows:
            charge(scan_tuple)
            ok = True
            for pos, p in preds:
                charge(select_tuple)
                if not p.evaluate(row[pos]):
                    ok = False
                    break
            if ok:
                for left, right, p in cross_preds:
                    charge(select_tuple)
                    if not p.evaluate(row[left], row[right]):
                        ok = False
                        break
            if ok:
                yield shape(row)

    return Stream(out_columns, generate())


def _index_scan(rt, table, scan, index, prefix, residual, cross_preds=()):
    out_columns = scan.output_columns()
    shape = _row_shaper([table.column_position(c) for c in scan.base_columns])
    charge = rt.clock.cpu_log()

    def generate():
        row_ids = index.tree.prefix_values(prefix)
        if not row_ids:
            return
        if index.clustered:
            lo, hi = min(row_ids), max(row_ids) + 1
            first, last = table.heap_pages_of_range(lo, hi)
            rt.pool.read_pages(table.heap_segment, range(first, last))
        else:
            pages = sorted({table.heap_page_of_row(rid) for rid in row_ids})
            rt.pool.read_pages(table.heap_segment, pages, scattered=True)
        scan_tuple, select_tuple = rt.costs.scan_tuple, rt.costs.select_tuple
        preds = [(table.column_position(col), p) for col, p in residual]
        rows = table.rows
        for rid in row_ids:
            charge(scan_tuple)
            row = rows[rid]
            ok = True
            for pos, p in preds:
                charge(select_tuple)
                if not p.evaluate(row[pos]):
                    ok = False
                    break
            if ok:
                for left, right, p in cross_preds:
                    charge(select_tuple)
                    if not p.evaluate(row[left], row[right]):
                        ok = False
                        break
            if ok:
                yield shape(row)

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

    charge = rt.clock.cpu_log()
    select_tuple = rt.costs.select_tuple

    def generate():
        for row in stream:
            ok = True
            for left, right, p in compiled:
                charge(select_tuple)
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
    shape = _row_shaper([stream.position(i) for _, i in mapping])
    return Stream([o for o, _ in mapping], map(shape, stream))


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
    shape = _row_shaper([table.column_position(c) for c in scan.base_columns])
    charge = rt.clock.cpu_log()
    costs = rt.costs
    scan_tuple, select_tuple = costs.scan_tuple, costs.select_tuple
    union_tuple = costs.union_tuple

    def generate():
        prefix_values, rows = index.tree.prefix_values, table.rows
        for outer_row in outer:
            row_ids = prefix_values((outer_row[outer_pos],))
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
                charge(scan_tuple)
                row = rows[rid]
                ok = True
                for pos, p in base_preds:
                    charge(select_tuple)
                    if not p.evaluate(row[pos]):
                        ok = False
                        break
                if not ok:
                    continue
                charge(union_tuple)
                if swap:
                    yield shape(row) + outer_row
                else:
                    yield outer_row + shape(row)

    return Stream(out_columns, generate())


def _hash_join_streams(rt, left, right, on):
    left_rows = list(left)
    right_rows = list(right)
    # The join key never leaves this operator, so a one-column key may
    # stay the bare value itemgetter returns.
    lkey = itemgetter(*(left.position(l) for l, _ in on))
    rkey = itemgetter(*(right.position(r) for _, r in on))
    costs, clock = rt.costs, rt.clock
    charge = clock.cpu_log()

    if len(left_rows) <= len(right_rows):
        build_rows, build_key = left_rows, lkey
        probe_rows, probe_key = right_rows, rkey
        build_is_left = True
    else:
        build_rows, build_key = right_rows, rkey
        probe_rows, probe_key = left_rows, lkey
        build_is_left = False

    def generate():
        hash_probe, union_tuple = costs.hash_probe, costs.union_tuple
        table = {}
        # The build input is materialized: nothing interleaves with its
        # per-row charges, so they are logged as one run.
        clock.charge_cpu_many(costs.hash_build, len(build_rows))
        for row in build_rows:
            table.setdefault(build_key(row), []).append(row)
        for row in probe_rows:
            charge(hash_probe)
            matches = table.get(probe_key(row), ())
            for match in matches:
                charge(union_tuple)
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
    group_key = _row_shaper([child.position(k) for k in node.keys])
    agg_specs = [
        (func, child.position(input_column))
        for func, input_column, _ in node.aggregates
    ]
    charge = rt.clock.cpu_log()
    row_charge = group_unit_cost(rt.costs, len(agg_specs))

    def generate():
        counts = {}
        accumulators = {}
        n_rows = 0
        for row in child:
            n_rows += 1
            charge(row_charge)
            key = group_key(row)
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
    charge = rt.clock.cpu_log()
    union_tuple = rt.costs.union_tuple

    def generate():
        seen = set() if node.distinct else None
        for child_pnode in pnode.children:
            stream = rt.build_child(child_pnode)
            for row in stream:
                charge(union_tuple)
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
            rows.sort(key=itemgetter(pos), reverse=descending)
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
    charge = rt.clock.cpu_log()
    group_tuple = rt.costs.group_tuple

    def generate():
        seen = set()
        for row in stream:
            charge(group_tuple)
            if row not in seen:
                seen.add(row)
                yield row

    return Stream(stream.columns, generate())
