"""Column-at-a-time physical operators (vector paradigm).

The column store's operator set for the unified execution layer
(:mod:`repro.exec`).  Physical work is vectorized numpy; every operator
charges the query clock its cost-model CPU price, and every base-table
access goes through the buffer pool so I/O is accounted per column and per
byte range.

The operators understand two locality mechanisms that drive the paper's
results:

* **Sorted-prefix selection** — equality predicates on the leading sort
  columns of a table become binary searches; only the qualifying slice of
  the remaining columns is read (why a PSO-sorted triples table reads a
  property's range instead of the whole table, and why the SO-sorted
  vertically-partitioned tables are cheap).
* **Positional fetches** — selections that do not follow the sort order
  fetch matching rows by page, so a scattered 25% selectivity ends up
  touching every page (why SPO clustering is slow for property-bound
  queries).

Registration order is lowering priority: the fused ``scan+select`` access
path is matched before the generic ``filter``/``scan`` pair, mirroring the
legacy executor's dispatch.
"""

import math
from collections import namedtuple
from functools import partial
from itertools import groupby

import numpy as np

from repro.colstore import vectorops as V
from repro.exec.common import (
    MISSING_VALUE,
    ascending_prefix,
    extend_fill_value,
    sort_cost,
)
from repro.exec.morsel import effective_dop, run_batch, split_morsels
from repro.exec.registry import (
    EngineOperatorSet,
    Lowered,
    match_type,
    matches,
)
from repro.exec.runtime import Intermediate
from repro.observe.trace import wall_now
from repro.plan import logical as L
from repro.plan.predicates import is_column_comparison
from repro.relation import Relation

VALUE_BYTES = 8

COLUMN_OPS = EngineOperatorSet("column-store", paradigm="vector")


# ---------------------------------------------------------------------------
# base-table access helpers
# ---------------------------------------------------------------------------

def _base_column(scan, qualified):
    if scan.alias and qualified.startswith(scan.alias + "."):
        return qualified[len(scan.alias) + 1 :]
    return qualified


def _descend(table, prefix):
    """Binary-search each *prefix* constant in the next sort column;
    returns the narrowed ``(lo, hi)`` and the ``(column, lo, hi)`` probes
    made, for :func:`_probe`.  A constant missing from the dictionary
    (``None``) or an empty range ends the descent."""
    lo, hi = 0, table.n_rows
    probes = []
    for column, value in zip(table.sort_order, prefix):
        if lo >= hi or value is None:
            return lo, lo, probes
        probes.append((column, lo, hi))
        array = table.array(column)[lo:hi]
        hi = lo + int(np.searchsorted(array, value, side="right"))
        lo += int(np.searchsorted(array, value, side="left"))
    return lo, hi, probes


def _probe(rt, table, column, lo, hi):
    """Charge one probe of the sorted *column* over rows ``[lo, hi)``:
    search CPU, then probe pages.  A descent's first probe spans the whole
    table whatever the constant, so it is resolved once per column."""
    whole = lo == 0 and hi == table.n_rows
    charge = rt.resolved.get((table.name, column, "probe")) if whole else None
    if charge is None:
        segment = table.segments[column]
        charge = (
            segment, _probe_pages(segment, table.encodings.get(column), lo, hi),
            rt.costs.select_tuple * (2 * math.log2(max(hi - lo, 2))),
        )
        if whole:
            rt.resolved[table.name, column, "probe"] = charge
    segment, pages, cpu = charge
    rt.clock.charge_cpu(cpu)
    rt.pool.read_pages(segment, pages)


def _probe_pages(segment, encoding, lo, hi):
    """Deterministic bisection probe pages within the row range (mapped
    through the compressed byte layout when *encoding* is not None)."""
    pages = set()
    a, b = lo, hi
    for _ in range(64):
        if a >= b:
            break
        mid = (a + b) // 2
        byte = (
            mid * VALUE_BYTES if encoding is None
            else encoding.probe_byte(mid)
        )
        pages.add(byte // segment.page_size)
        b = mid  # descend left; the exact path doesn't matter for cost
        if b - a <= segment.page_size // VALUE_BYTES:
            break
    return sorted(pages)


def _dense_read(rt, table, column, lo, hi):
    """Read rows ``[lo, hi)`` of *column*: its compressed byte ranges when
    it is encoded, the raw bytes otherwise."""
    segment, encoding = table.segments[column], table.encodings.get(column)
    if encoding is None:
        rt.pool.read(segment, lo * VALUE_BYTES, (hi - lo) * VALUE_BYTES)
        return
    nbytes = 0
    for offset, length in encoding.byte_ranges(lo, hi):
        rt.pool.read(segment, offset, length)
        nbytes += length
    _note_compressed_read(rt, nbytes, (hi - lo) * VALUE_BYTES)


def _note_compressed_read(rt, nbytes, logical_nbytes):
    rt.engine.compression_counts.note_scan(nbytes, logical_nbytes)
    tracer = rt.engine.tracer
    if tracer.enabled:
        tracer.current_add(
            bytes_scanned=int(nbytes),
            logical_bytes_scanned=int(logical_nbytes),
        )


def _note_runs_skipped(rt, n):
    if n <= 0:
        return
    rt.engine.compression_counts.note_runs_skipped(n)
    tracer = rt.engine.tracer
    if tracer.enabled:
        tracer.current_add(runs_skipped=int(n))


def _fetch_cost(rt, table, column, lo, hi, positions):
    """Charge the I/O of reading *column* for the candidate rows: the
    dense range ``[lo, hi)`` when *positions* is None, else the pages the
    positions touch.  The column's physical encoding decides which bytes
    those are (compressed byte ranges / run pages instead of raw ones).

    This is the kernel's only I/O accounting path.  Buffer-pool request
    counts depend on global access order (sequential coalescing, run
    chunking, the scattered-read penalty), so it is always called from
    the coordinator's serial cost replay — never from a data-plane task.
    """
    if positions is None:
        _dense_read(rt, table, column, lo, hi)
        return
    if len(positions) == 0:
        return
    segment, encoding = table.segments[column], table.encodings.get(column)
    if encoding is not None:
        pages = encoding.pages_for_rows(positions, segment.page_size)
        rt.pool.read_pages(segment, pages, scattered=True)
        _note_compressed_read(
            rt, len(pages) * segment.page_size, len(positions) * VALUE_BYTES,
        )
    else:
        pages = positions * VALUE_BYTES // segment.page_size
        steps = pages[1:] - pages[:-1]
        if steps.size and steps.min() < 0:
            pages = np.unique(pages)  # not in row order (a join's matches)
        else:
            pages = pages[np.concatenate(([True], steps > 0))]
        rt.pool.read_pages(segment, pages, scattered=True)


def _needed_base_columns(scan, needed):
    """Base column names for the needed outputs, in scan output order."""
    base_needed = []
    for col in scan.output_columns():
        if col in needed:
            base_needed.append(_base_column(scan, col))
    return base_needed


def _split_predicates(scan, table, predicates):
    """``(prefix, residual)`` of simple *predicates*: the constants of the
    equalities that follow *table*'s sort order (the first per sort column,
    until one has none), for :func:`_descend`; every other predicate as a
    ``(base column, predicate)`` pair, grouped by column in order."""
    by_base = {}
    for pred in predicates:
        by_base.setdefault(_base_column(scan, pred.column), []).append(pred)
    prefix, consumed = [], set()
    for sort_col in table.sort_order:
        preds = by_base.get(sort_col, ())
        eq = next((p for p in preds if p.is_equality()), None)
        if eq is None:
            break
        prefix.append(eq.value)
        consumed.add(id(eq))
    residual = tuple(
        (base_col, pred)
        for base_col, preds in by_base.items()
        for pred in preds
        if id(pred) not in consumed
    )
    return tuple(prefix), residual


# ---------------------------------------------------------------------------
# the kernel: data-plane tasks per range, one dispatch, one cost replay
# ---------------------------------------------------------------------------
#
# Every base-table access runs in two halves.  A *data-plane task* does the
# numpy work for one range (predicate masks stage by stage, then gathers)
# and never touches the clock or the buffer pool.  The coordinator's *cost
# replay* then charges the clock and the pool in the serial order over the
# index-ordered task results.  Serial execution is the one-range case, run
# on the calling thread; a morsel run hands the same tasks to ``run_batch``.
# Rows and simulated-cost documents are therefore bit-identical at any
# worker count, and a column's encoding — consulted only by the replay and
# by the RLE run-level mask — composes with morsels by construction.

def _morsel_rows(rt):
    """Rows per range for the running query, or None when it runs on one
    lane (serial engine, or admission clamped the query's dop to 1)."""
    context = rt.engine.parallelism()
    if context is None or effective_dop(rt, context) <= 1:
        return None
    return context.morsel_rows


def _run_ranges(rt, work, ranges, range_rows, replay):
    """Run ``work(*args)`` for every args tuple in *ranges*, then *replay*
    over the results in range order; returns what *replay* returns.

    The one place that decides inline vs lanes: a single range runs on
    the calling thread with no executor traffic; several go to
    ``run_batch`` as one batch, and the replay's clock delta is folded
    into per-morsel child spans weighted by *range_rows*.  Either way the
    cancel token is polled once per range.
    """
    if len(ranges) == 1:
        token = rt.cancel_token
        if token is not None:
            token.raise_if_cancelled()
        return replay([work(*ranges[0])])
    context = rt.engine.parallelism()
    tracer = rt.engine.tracer
    snap = rt.clock.profile_snapshot() if tracer.enabled else None
    wall0 = wall_now()
    result = replay(run_batch(
        [partial(work, *args) for args in ranges],
        effective_dop(rt, context), cancel_token=rt.cancel_token,
    ))
    if tracer.enabled:
        _morsel_span_attribution(rt, snap, wall0, range_rows)
    return result


def _merge(parts):
    """Range-ordered concatenation (a single part is returned as is)."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _morsel_span_attribution(rt, snap, wall0, task_rows):
    """Fold the parallel section's clock delta into per-morsel child
    spans, apportioned by morsel row count (the last morsel takes the
    exact remainder, so the shares telescope back to the delta and the
    span-sum invariant holds to the bit)."""
    tracer = rt.engine.tracer
    now = rt.clock.profile_snapshot()
    wall = wall_now() - wall0
    delta = [now[i] - snap[i] for i in range(6)]
    total = sum(task_rows)
    remaining = list(delta)
    wall_remaining = wall
    last = len(task_rows) - 1
    for index, rows in enumerate(task_rows):
        if index == last:
            share, wall_share = remaining, wall_remaining
        else:
            frac = (rows / total) if total else 0.0
            share = [delta[i] * frac for i in range(6)]
            wall_share = wall * frac
            remaining = [remaining[i] - share[i] for i in range(6)]
            wall_remaining -= wall_share
        child = tracer.transfer_to_child(
            f"morsel[{index}]", share, wall_share
        )
        if child is not None:
            child.rows = rows
    tracer.current_add(morsels=len(task_rows))


def _rle_encoding(table, column):
    encoding = table.encodings.get(column)
    if encoding is not None and encoding.codec == "rle":
        return encoding
    return None


def _scan_range(table, residual, base_needed, lo, hi):
    """Data plane for rows ``[lo, hi)``: evaluate the residual predicates
    stage by stage and gather the needed columns.  Returns
    ``(stage_positions, gathers)`` — masks are row-local, so the
    range-ordered concatenation of each stage equals the whole-range
    stage arrays exactly.

    On the dense first stage a physically RLE-encoded column is evaluated
    once per run instead of once per row; the mask is identical by the
    run-length identity (every row of a run shares the run's value).
    """
    stages = []
    local = None  # None means the dense range [lo, hi)
    for base_col, pred in residual:
        if local is None:
            encoding = _rle_encoding(table, base_col)
            if encoding is not None:
                run_values, run_counts = encoding.runs_overlapping(lo, hi)
                mask = np.repeat(pred.mask(run_values), run_counts)
            else:
                mask = pred.mask(table.array(base_col)[lo:hi])
            local = lo + np.nonzero(mask)[0]
        elif len(local):
            local = local[pred.mask(table.array(base_col)[local])]
        stages.append(local)
    rows = slice(lo, hi) if local is None else local
    return stages, [table.array(c)[rows] for c in base_needed]


def _replay_scan(rt, table, residual, fetch_cols, lo, hi, stages):
    """The cost replay of one fused scan+select after its descent: each
    residual stage, then each gather of *fetch_cols*, over ``[lo, hi)``
    and the positions each stage kept (*stages*, merged over ranges); all
    are skipped once no candidate is left.  Returns the row count."""
    count = hi - lo
    if not count:
        return 0
    charge_cpu = rt.clock.cpu_log()
    positions = None  # None means the dense range [lo, hi)
    for stage, (base_col, _pred) in enumerate(residual):
        if count == 0:
            break
        encoding = (
            _rle_encoding(table, base_col) if positions is None else None
        )
        if encoding is not None:
            _dense_read(rt, table, base_col, lo, hi)
            n_runs = encoding.run_index(hi - 1) - encoding.run_index(lo) + 1
            charge_cpu(rt.costs.select_tuple * n_runs)
            _note_runs_skipped(rt, count - n_runs)
        else:
            _fetch_cost(rt, table, base_col, lo, hi, positions)
            charge_cpu(rt.costs.select_tuple * count)
        positions = stages[stage]
        count = len(positions)
    for base_col in fetch_cols if count else ():
        _fetch_cost(rt, table, base_col, lo, hi, positions)
        charge_cpu(rt.costs.scan_tuple * count)
    return count


def _scan_select(rt, scan, predicates, needed):
    """Scan with fused selection: binary-searchable sorted prefix on the
    coordinator (it narrows the range the morsels split), then
    column-at-a-time residual predicates and gathers per range."""
    table = rt.engine.table(scan.table)
    base_needed = _needed_base_columns(scan, needed)
    prefix, residual = _split_predicates(scan, table, predicates)
    lo, hi, probes = _descend(table, prefix)
    for probe in probes:
        _probe(rt, table, *probe)

    def replay(results):
        count = _replay_scan(rt, table, residual, base_needed, lo, hi, [
            _merge(parts) for parts in zip(*(stages for stages, _ in results))
        ])
        columns = {
            scan.qualified(base_col): _merge([r[1][i] for r in results])
            for i, base_col in enumerate(base_needed)
        }
        if not columns:
            # Parent only needs the row count (e.g. a bare count(*)).
            columns["__rowid__"] = np.arange(count, dtype=np.int64)
        relation = Relation(columns, oid_columns=set(columns) - {"__rowid__"})
        # A dense range of a sorted table stays sorted; positional
        # filtering preserves order too (masks keep row order).
        sorted_by = tuple(scan.qualified(c) for c in table.sort_order)
        return Intermediate(relation, sorted_by)

    rows = _morsel_rows(rt)
    bounds = split_morsels(lo, hi, rows) if rows is not None else ()
    if len(bounds) <= 1:
        bounds = ((lo, hi),)
    return _run_ranges(
        rt, _scan_range,
        [(table, residual, base_needed, mlo, mhi) for mlo, mhi in bounds],
        [mhi - mlo for mlo, mhi in bounds], replay,
    )


def _apply_cross(rt, intermediate, cross):
    rel = intermediate.relation
    mask = np.ones(rel.n_rows, dtype=bool)
    for pred in cross:
        rt.clock.charge_cpu(rt.costs.select_tuple * max(rel.n_rows, 1))
        mask &= pred.mask(rel.column(pred.left), rel.column(pred.right))
    columns = {n: a[mask] for n, a in rel.columns.items()}
    return Intermediate(
        Relation(columns, rel.oid_columns), intermediate.sorted_by
    )


# ---------------------------------------------------------------------------
# operate-on-compressed kernels
# ---------------------------------------------------------------------------
#
# Registered ahead of the generic access paths (registration order is
# lowering priority) but behind a `guard`: they only apply when the live
# engine's table stores the relevant column RLE-encoded, so an uncompressed
# engine lowers exactly as before.

def _rle_leading_scan(engine, scan):
    """``(table, leading_sort_column, rle_encoding)`` when *scan*'s table
    physically stores its leading sort column run-length encoded."""
    if not engine.has_table(scan.table):
        return None
    table = engine.table(scan.table)
    if not table.sort_order:
        return None
    lead = table.sort_order[0]
    encoding = _rle_encoding(table, lead)
    if encoding is None:
        return None
    return table, lead, encoding


def _guard_compressed_group(engine, node):
    if not isinstance(node, L.GroupBy):
        return False
    if node.aggregates or len(node.keys) != 1:
        return False
    scan = node.child
    if not isinstance(scan, L.Scan):
        return False
    info = _rle_leading_scan(engine, scan)
    if info is None:
        return False
    _, lead, _ = info
    return _base_column(scan, node.keys[0]) == lead


@matches(L.GroupBy)
def _match_compressed_group(node):
    return Lowered(fused=(node.child,))


@COLUMN_OPS.operator(
    "compressed-group", _match_compressed_group,
    "grouped count(*) straight off the RLE runs of the leading sort "
    "column: group keys are the run values, counts the run lengths",
    guard=_guard_compressed_group,
)
def compressed_group(rt, pnode, needed_above):
    node = pnode.logical
    scan = node.child
    table = rt.engine.table(scan.table)
    lead = table.sort_order[0]
    encoding = table.encodings[lead]

    def grouped():
        # Maximal runs of the sorted leading column: run values are the
        # distinct keys in ascending order, run lengths their counts —
        # exactly group_count's output, without touching a single row.
        _dense_read(rt, table, lead, 0, table.n_rows)
        n_runs = encoding.n_runs
        rt.clock.charge_cpu(rt.costs.scan_tuple * max(n_runs, 1))
        _note_runs_skipped(rt, table.n_rows - n_runs)
        columns = {
            node.keys[0]: encoding.run_values.copy(),
            node.count_column: encoding.run_lengths.copy(),
        }
        relation = Relation(columns, oid_columns={node.keys[0]})
        return Intermediate(relation, tuple(node.keys))

    result = rt.traced_block(scan, grouped)
    rt.clock.charge_cpu(
        rt.costs.group_tuple * max(result.relation.n_rows, 1)
    )
    return result


def _guard_compressed_join(engine, node):
    if not isinstance(node, L.Join) or len(node.on) != 1:
        return False
    scan = node.right
    if not isinstance(scan, L.Scan):
        return False
    info = _rle_leading_scan(engine, scan)
    if info is None:
        return False
    _, lead, _ = info
    (_, rcol), = node.on
    return _base_column(scan, rcol) == lead


@matches(L.Join)
def _match_compressed_join(node):
    return Lowered(children=(node.left,), fused=(node.right,))


@COLUMN_OPS.operator(
    "compressed-join", _match_compressed_join,
    "merge join walking RLE run boundaries of the right scan's sorted "
    "key column; non-key columns fetched positionally for matches only",
    guard=_guard_compressed_join,
)
def compressed_join(rt, pnode, needed):
    node = pnode.logical
    scan = node.right
    table = rt.engine.table(scan.table)
    lead = table.sort_order[0]
    encoding = table.encodings[lead]
    (lcol, rcol), = node.on

    left_cols = set(node.left.output_columns())
    left_needed = (needed & left_cols) | {lcol}
    left = rt.run_child(pnode.children[0], left_needed)
    lrel = left.relation

    def scan_runs():
        _dense_read(rt, table, lead, 0, table.n_rows)
        rt.clock.charge_cpu(rt.costs.scan_tuple * max(encoding.n_runs, 1))
        _note_runs_skipped(rt, table.n_rows - encoding.n_runs)
        relation = Relation(
            {rcol: encoding.run_values}, oid_columns={rcol}
        )
        return Intermediate(relation, (rcol,))

    rt.traced_block(scan, scan_runs)

    lidx, right_pos = V.join_runs(
        lrel.column(lcol), encoding.run_values,
        encoding.run_starts, encoding.run_lengths,
    )
    n_out = len(lidx)
    rt.clock.charge_cpu(
        rt.costs.merge_step * (lrel.n_rows + encoding.n_runs + n_out)
    )

    columns = {}
    for name, arr in lrel.columns.items():
        if name in needed or name == lcol:
            columns[name] = arr[lidx]
    for qualified in scan.output_columns():
        if qualified not in needed and qualified != rcol:
            continue
        base = _base_column(scan, qualified)
        if base != lead:
            # The key column's bytes were already read as runs; only the
            # other columns pay a positional fetch for the matches.
            _fetch_cost(rt, table, base, 0, table.n_rows, right_pos)
        rt.clock.charge_cpu(rt.costs.scan_tuple * max(n_out, 1))
        columns[qualified] = table.array(base)[right_pos]
    scan_outputs = set(scan.output_columns())
    oid = (lrel.oid_columns | scan_outputs) & set(columns)
    # join_runs keeps left order, so left sortedness survives.
    return Intermediate(Relation(columns, oid), left.sorted_by)


# ---------------------------------------------------------------------------
# access paths
# ---------------------------------------------------------------------------

@matches(L.Select)
def _match_fused_scan(node):
    if isinstance(node, L.Select) and isinstance(node.child, L.Scan):
        return Lowered(fused=(node.child,))
    return None


@COLUMN_OPS.operator(
    "scan+select", _match_fused_scan,
    "selection fused into the scan: sorted-prefix binary search plus "
    "column-at-a-time residual predicates",
)
def scan_select(rt, pnode, needed):
    node = pnode.logical
    scan = node.child
    simple = [p for p in node.predicates if not is_column_comparison(p)]
    cross = [p for p in node.predicates if is_column_comparison(p)]
    if not cross:
        # The fused scan still gets its own span; its reported rows are
        # post-selection (the selection runs inside the scan).
        return rt.traced_block(
            scan, lambda: _scan_select(rt, scan, simple, needed)
        )
    inner_needed = set(needed) | {c for p in cross for c in p.columns()}
    result = rt.traced_block(
        scan, lambda: _scan_select(rt, scan, simple, inner_needed)
    )
    return _apply_cross(rt, result, cross)


@COLUMN_OPS.operator(
    "scan", match_type(L.Scan),
    "full-column scan (dense sequential reads of the needed columns)",
)
def scan(rt, pnode, needed):
    return _scan_select(rt, pnode.logical, [], needed)


@COLUMN_OPS.operator(
    "filter", match_type(L.Select),
    "vectorized selection over a materialized intermediate",
)
def filter_(rt, pnode, needed):
    node = pnode.logical
    child_needed = set(needed)
    for p in node.predicates:
        if is_column_comparison(p):
            child_needed.update(p.columns())
        else:
            child_needed.add(p.column)
    child = rt.run_child(pnode.children[0], child_needed)
    rel = child.relation
    mask = np.ones(rel.n_rows, dtype=bool)
    for pred in node.predicates:
        rt.clock.charge_cpu(rt.costs.select_tuple * max(rel.n_rows, 1))
        if is_column_comparison(pred):
            mask &= pred.mask(rel.column(pred.left), rel.column(pred.right))
        else:
            mask &= pred.mask(rel.column(pred.column))
    columns = {n: a[mask] for n, a in rel.columns.items()}
    return Intermediate(Relation(columns, rel.oid_columns), child.sorted_by)


# ---------------------------------------------------------------------------
# projection / join
# ---------------------------------------------------------------------------

@COLUMN_OPS.operator(
    "project", match_type(L.Project),
    "narrow/rename columns (no data movement beyond the mapping)",
)
def project(rt, pnode, needed):
    node = pnode.logical
    mapping = [(o, i) for o, i in node.mapping if o in needed]
    if not mapping:
        mapping = node.mapping[:1]
    child_needed = {i for _, i in mapping}
    child = rt.run_child(pnode.children[0], child_needed)
    rel = child.relation
    columns = {o: rel.column(i) for o, i in mapping}
    oid = {o for o, i in mapping if i in rel.oid_columns}
    rename = dict((i, o) for o, i in mapping)
    sorted_by = []
    for col in child.sorted_by:
        if col in rename:
            sorted_by.append(rename[col])
        else:
            break
    return Intermediate(Relation(columns, oid), tuple(sorted_by))


def _merge_joinable(left, right, on):
    if len(on) != 1:
        return False
    (lcol, rcol), = on
    return (
        len(left.sorted_by) > 0
        and left.sorted_by[0] == lcol
        and len(right.sorted_by) > 0
        and right.sorted_by[0] == rcol
    )


@COLUMN_OPS.operator(
    "vector-join", match_type(L.Join),
    "equi-join over column vectors: merge when both inputs prove sorted "
    "on the key, hash otherwise",
)
def vector_join(rt, pnode, needed):
    node = pnode.logical
    left_cols = set(node.left.output_columns())
    right_cols = set(node.right.output_columns())
    left_needed = (needed & left_cols) | {l for l, _ in node.on}
    right_needed = (needed & right_cols) | {r for _, r in node.on}
    left = rt.run_child(pnode.children[0], left_needed)
    right = rt.run_child(pnode.children[1], right_needed)
    lrel, rrel = left.relation, right.relation

    lkeys = [lrel.column(l) for l, _ in node.on]
    rkeys = [rrel.column(r) for _, r in node.on]
    right_sorted = False
    if len(node.on) == 1:
        lcodes, rcodes = lkeys[0], rkeys[0]
        # The plan's sort-order metadata proves the right side sorted on
        # the join key (e.g. an SO-sorted vertical table joined on
        # subject), so join_indices can skip its sortedness check.
        (_, rcol), = node.on
        right_sorted = (
            len(right.sorted_by) > 0 and right.sorted_by[0] == rcol
        )
    else:
        lcodes, rcodes = V.factorize_rows_shared(lkeys, rkeys)

    lidx, ridx = V.join_indices(lcodes, rcodes, assume_sorted=right_sorted)
    n_left, n_right, n_out = lrel.n_rows, rrel.n_rows, len(lidx)

    merge = _merge_joinable(left, right, node.on)
    if merge:
        rt.clock.charge_cpu(
            rt.costs.merge_step * (n_left + n_right + n_out)
        )
    else:
        small, large = sorted((n_left, n_right))
        rt.clock.charge_cpu(
            rt.costs.hash_build * small
            + rt.costs.hash_probe * large
            + rt.costs.union_tuple * n_out
        )

    columns = {}
    for name, arr in lrel.columns.items():
        if name in needed or any(name == l for l, _ in node.on):
            columns[name] = arr[lidx]
    for name, arr in rrel.columns.items():
        if name in needed or any(name == r for _, r in node.on):
            columns[name] = arr[ridx]
    oid = (lrel.oid_columns | rrel.oid_columns) & set(columns)
    # join_indices keeps left order, so left sortedness survives.
    return Intermediate(Relation(columns, oid), left.sorted_by)


# ---------------------------------------------------------------------------
# grouping / having
# ---------------------------------------------------------------------------

def _any_column(child):
    return {child.output_columns()[0]}


@COLUMN_OPS.operator(
    "vector-group", match_type(L.GroupBy),
    "grouped count(*)/min/max via factorize + segmented reduction",
)
def vector_group(rt, pnode, needed_above):
    node = pnode.logical
    needed = set(node.keys) | {c for _, c, _ in node.aggregates}
    child = rt.run_child(
        pnode.children[0], needed or _any_column(node.child)
    )
    rel = child.relation
    charge = max(rel.n_rows, 1) * (1 + len(node.aggregates))
    rt.clock.charge_cpu(rt.costs.group_tuple * charge)
    if not node.keys:
        columns = {node.count_column: np.array([rel.n_rows], dtype=np.int64)}
        oid = set()
        for func, input_column, output_name in node.aggregates:
            values = rel.column(input_column)
            reducer = {"min": np.min, "max": np.max}[func]
            result = int(reducer(values)) if rel.n_rows else MISSING_VALUE
            columns[output_name] = np.array([result], dtype=np.int64)
            if input_column in rel.oid_columns:
                oid.add(output_name)
        return Intermediate(Relation(columns, oid_columns=oid), ())
    key_arrays = [rel.column(k) for k in node.keys]
    keys, counts = V.group_count(key_arrays)
    columns = dict(zip(node.keys, keys))
    columns[node.count_column] = counts
    oid = set(node.keys) & rel.oid_columns
    for func, input_column, output_name in node.aggregates:
        columns[output_name] = V.group_aggregate(
            key_arrays, rel.column(input_column), func
        )
        if input_column in rel.oid_columns:
            oid.add(output_name)
    return Intermediate(Relation(columns, oid), tuple(node.keys))


@COLUMN_OPS.operator(
    "having", match_type(L.Having),
    "vectorized group filter over the GroupBy output",
)
def having(rt, pnode, needed):
    node = pnode.logical
    child = rt.run_child(pnode.children[0], set(node.output_columns()))
    rel = child.relation
    rt.clock.charge_cpu(rt.costs.select_tuple * max(rel.n_rows, 1))
    mask = node.predicate.mask(rel.column(node.predicate.column))
    columns = {n: a[mask] for n, a in rel.columns.items()}
    return Intermediate(Relation(columns, rel.oid_columns), child.sorted_by)


# ---------------------------------------------------------------------------
# union / distinct / extend
# ---------------------------------------------------------------------------

#: A resolved canonical union branch: *fetch_cols* are the base columns
#: it reads, in scan column order (the charge order); *sources* names, per
#: kept union output, the position in *fetch_cols* that feeds it — ``None``
#: for the extend constant *fill*.  *prefix* and *residual* are its
#: selection as :func:`_split_predicates` splits it (both empty: none).
_Branch = namedtuple("_Branch", "table fetch_cols sources fill prefix residual")

#: A run of consecutive canonical branches, resolved: *charges* holds, in
#: branch order, a plain branch's :func:`_whole_column` entries and a
#: selecting branch itself, charged from its data-plane result.
_CanonicalRun = namedtuple("_CanonicalRun", "branches charges")

#: What ``vector-union`` resolves once per lowered node and keeps in
#: ``PhysicalPlan.prepared``: the kept output positions and names for the
#: parent's *needed* set, and the branch runs — a :class:`_CanonicalRun`,
#: or the child nodes of a run of branches of any other shape.  It holds
#: little per branch on purpose, and only tuples: 64 lowered plans of 222
#: branches stay cached, and every container they keep alive is one more
#: for each full garbage collection to walk.
_UnionPlan = namedtuple("_UnionPlan", "needed keep out_keys runs")


def _canonical_branch(rt, child, keep, intern):
    """Resolve a canonical ``Project(Extend?(Select?(Scan)))`` union
    branch with only simple predicates (one per property table in the
    vertically-partitioned plans: q8's selections, a describe's subject)
    to a :class:`_Branch` sharing equal tuples through *intern*, or
    ``None`` for any other branch shape."""
    if type(child) is not L.Project:
        return None
    mapping = child.mapping
    inner = child.child
    extend_node = None
    if type(inner) is L.Extend:
        extend_node = inner
        inner = inner.child
    predicates = ()
    if type(inner) is L.Select:
        predicates = inner.predicates
        if any(map(is_column_comparison, predicates)):
            return None
        inner = inner.child
    if type(inner) is not L.Scan:
        return None
    scan_node = inner

    # Reproduce the operators' "needed columns" propagation exactly —
    # including extend's quirk of requesting the scan's first column
    # when nothing below the extended column is needed.
    child_needed = [mapping[i][1] for i in keep]
    scan_needed = set(child_needed)
    extend_col, fill = None, 0
    if extend_node is not None:
        if extend_node.column in scan_needed:
            extend_col = extend_node.column
            fill = extend_fill_value(extend_node.value)
            scan_needed.discard(extend_col)
        if not scan_needed:
            scan_needed = {scan_node.output_columns()[0]}
    fetch_cols = tuple(_needed_base_columns(scan_node, scan_needed))
    sources = tuple(
        None if source == extend_col
        else fetch_cols.index(_base_column(scan_node, source))
        for source in child_needed
    )
    table = rt.engine.table(scan_node.table)
    prefix, residual = _split_predicates(scan_node, table, predicates)
    return _Branch(
        table, intern(fetch_cols, fetch_cols), intern(sources, sources), fill,
        intern(prefix, prefix), residual,
    )


def _union_range(branches, n_out):
    """Data plane for a group of canonical branches: per kept output, the
    branch vectors (whole columns, selected rows, constant extend fills)
    concatenated in branch order; and, in branch order, each selecting
    branch's ``(lo, hi, probes, stages)`` for the replay to charge."""
    outputs = [[] for _ in range(n_out)]
    scans = []
    for table, fetch_cols, sources, fill, prefix, residual in branches:
        if prefix or residual:
            lo, hi, probes = _descend(table, prefix)
            stages, gathers = _scan_range(table, residual, fetch_cols, lo, hi)
            scans.append((lo, hi, probes, stages))
        else:
            gathers = list(map(table.array, fetch_cols))
        for parts, source in zip(outputs, sources):
            parts.append(
                np.full(len(gathers[0]), fill, dtype=np.int64)
                if source is None else gathers[source]
            )
    return [_merge(parts) for parts in outputs], scans


def _whole_column(rt, table, column):
    """What a whole-column read of *column* charges: ``(segment, page
    spans, compressed-read note or None, scan CPU seconds)``, resolved
    once per stored column into ``rt.resolved`` and shared by every plan
    that reads it."""
    charge = rt.resolved.get((table.name, column))
    if charge is None:
        nbytes = table.n_rows * VALUE_BYTES
        segment, encoding = table.segments[column], table.encodings.get(column)
        ranges, note = [(0, nbytes)], None
        if encoding is not None:
            ranges = encoding.byte_ranges(0, table.n_rows)
            note = (sum(length for _, length in ranges), nbytes)
        charge = rt.resolved[table.name, column] = (
            segment, [segment.page_span(*r) for r in ranges], note,
            rt.costs.scan_tuple * table.n_rows,
        )
    return charge


def _branch_charges(rt, branch):
    """The :class:`_CanonicalRun` charge entries of one branch: what a
    whole-table ``scan`` of its fetched columns charges, in that order —
    or, for a selecting branch, the branch itself."""
    if branch.prefix or branch.residual:
        return (branch,)
    table = branch.table
    if not table.n_rows:
        return ()
    return [_whole_column(rt, table, column) for column in branch.fetch_cols]


def _resolve_union(rt, pnode, needed):
    """The :class:`_UnionPlan` of a lowered union under *needed*."""
    out_names = pnode.logical.output_columns()
    keep = [i for i, name in enumerate(out_names) if name in needed] or [0]
    intern = {}.setdefault
    resolved = [
        (_canonical_branch(rt, child.logical, keep, intern), child)
        for child in pnode.children
    ]
    # Each run of consecutive canonical branches is one kernel call; a
    # branch of any other shape ends the run and goes through the generic
    # dispatch, so charges stay in branch order.
    runs = []
    for canonical, run in groupby(resolved, lambda pair: pair[0] is not None):
        if canonical:
            branches = [branch for branch, _ in run]
            runs.append(_CanonicalRun(branches, [
                charge for branch in branches
                for charge in _branch_charges(rt, branch)
            ]))
        else:
            runs.append(tuple(child for _, child in run))
    return _UnionPlan(
        frozenset(needed), keep, [out_names[i] for i in keep], runs
    )


def _canonical_branches(rt, run, n_out):
    """Evaluate consecutive canonical branches without generic dispatch
    (the operator machinery costs more wall-clock than 222 small arrays):
    evaluated in morsel-sized groups, charged in branch order with the
    buffer reads and clock charges the generic operators would make — a
    selecting branch exactly what its fused ``scan+select`` would.
    Returns the per-group output blocks."""
    branches = run.branches

    def replay(results):
        read_span, charge_cpu = rt.pool.read_span, rt.clock.cpu_log()
        scans = iter([scan for _, group in results for scan in group])
        for charge in run.charges:
            if type(charge) is _Branch:
                table = charge.table
                lo, hi, probes, stages = next(scans)
                for probe in probes:
                    _probe(rt, table, *probe)
                _replay_scan(
                    rt, table, charge.residual, charge.fetch_cols, lo, hi,
                    stages,
                )
                continue
            segment, spans, note, cpu = charge
            for span in spans:
                read_span(segment, *span)
            if note is not None:
                _note_compressed_read(rt, *note)
            charge_cpu(cpu)
        return [block for block, _ in results]

    groups, group_rows = [branches], [None]  # one range: rows unused
    rows = _morsel_rows(rt)
    if rows is not None:
        # Deterministic grouping: depends only on branch order and static
        # table sizes, never on the worker count.
        groups, group_rows = [[]], [0]
        for branch in branches:
            if group_rows[-1] >= rows:
                groups.append([])
                group_rows.append(0)
            groups[-1].append(branch)
            group_rows[-1] += branch.table.n_rows
    return _run_ranges(
        rt, _union_range, [(group, n_out) for group in groups], group_rows,
        replay,
    )


@COLUMN_OPS.operator(
    "vector-union", match_type(L.Union),
    "concatenate branch vectors (consecutive canonical "
    "Project(Extend?(Select?(Scan))) branches are evaluated per range and "
    "charged in branch order, identically to the generic operators)",
)
def vector_union(rt, pnode, needed):
    node = pnode.logical
    if node.distinct:
        # Every column decides which rows are duplicates.
        needed = set(node.output_columns())
    plan = pnode.prepared
    if plan is None or plan.needed != needed:
        plan = pnode.prepared = _resolve_union(rt, pnode, needed)
    out_keys = plan.out_keys
    blocks = []  # per-output vector lists, in branch order
    oid = set()
    total_in = 0
    for run in plan.runs:
        if type(run) is _CanonicalRun:
            for block in _canonical_branches(rt, run, len(out_keys)):
                blocks.append(block)
                total_in += len(block[0])
            oid.update(out_keys)  # scans and extends only produce oids
            continue
        for child_pnode in run:
            names = child_pnode.logical.output_columns()
            kept = [names[i] for i in plan.keep]
            rel = rt.run_child(child_pnode, set(kept)).relation
            total_in += rel.n_rows
            blocks.append([rel.column(name) for name in kept])
            oid.update(
                out for out, name in zip(out_keys, kept)
                if name in rel.oid_columns
            )
    columns = {
        out: _merge([block[k] for block in blocks])
        for k, out in enumerate(out_keys)
    }
    rt.clock.charge_cpu(rt.costs.union_tuple * max(total_in, 1))
    rel = Relation(columns, oid)
    if node.distinct:
        rt.clock.charge_cpu(rt.costs.group_tuple * max(rel.n_rows, 1))
        idx = V.distinct_rows([rel.column(n) for n in rel.columns])
        rel = Relation(
            {n: a[idx] for n, a in rel.columns.items()}, rel.oid_columns
        )
        return Intermediate(rel, tuple(rel.columns))
    return Intermediate(rel, ())


@COLUMN_OPS.operator(
    "vector-distinct", match_type(L.Distinct),
    "deduplicate rows via multi-column factorization",
)
def vector_distinct(rt, pnode, needed):
    node = pnode.logical
    child = rt.run_child(pnode.children[0], set(node.output_columns()))
    rel = child.relation
    rt.clock.charge_cpu(rt.costs.group_tuple * max(rel.n_rows, 1))
    idx = V.distinct_rows([rel.column(n) for n in rel.columns])
    columns = {n: a[idx] for n, a in rel.columns.items()}
    return Intermediate(Relation(columns, rel.oid_columns), tuple(columns))


@COLUMN_OPS.operator(
    "extend", match_type(L.Extend),
    "append a constant column (materialized only when consumed)",
)
def extend(rt, pnode, needed):
    node = pnode.logical
    child_needed = set(needed) - {node.column}
    if not child_needed:
        child_needed = {node.child.output_columns()[0]}
    child = rt.run_child(pnode.children[0], child_needed)
    rel = child.relation
    if node.column not in needed:
        return child
    value = extend_fill_value(node.value)
    columns = dict(rel.columns)
    columns[node.column] = np.full(rel.n_rows, value, dtype=np.int64)
    oid = set(rel.oid_columns) | {node.column}
    return Intermediate(Relation(columns, oid), child.sorted_by)


# ---------------------------------------------------------------------------
# sort / limit
# ---------------------------------------------------------------------------

@COLUMN_OPS.operator(
    "vector-sort", match_type(L.Sort),
    "np.lexsort over the key columns (stable, last key first)",
)
def vector_sort(rt, pnode, needed):
    node = pnode.logical
    child_needed = set(needed) | {c for c, _ in node.keys}
    child = rt.run_child(pnode.children[0], child_needed)
    rel = child.relation
    n = rel.n_rows
    rt.clock.charge_cpu(sort_cost(rt.costs, n))
    # np.lexsort sorts by the last key first; negate for descending
    # (values are oids/counts, far from the int64 extremes).
    sort_arrays = []
    for column, direction in reversed(node.keys):
        values = rel.column(column)
        sort_arrays.append(-values if direction == "desc" else values)
    order = np.lexsort(sort_arrays) if n else np.empty(0, dtype=np.int64)
    columns = {name: a[order] for name, a in rel.columns.items()}
    return Intermediate(
        Relation(columns, rel.oid_columns), ascending_prefix(node.keys)
    )


@COLUMN_OPS.operator(
    "limit", match_type(L.Limit),
    "truncate the materialized vectors to the first n rows",
)
def limit(rt, pnode, needed):
    node = pnode.logical
    child = rt.run_child(pnode.children[0], needed)
    rel = child.relation
    columns = {name: a[: node.n] for name, a in rel.columns.items()}
    return Intermediate(Relation(columns, rel.oid_columns), child.sorted_by)
