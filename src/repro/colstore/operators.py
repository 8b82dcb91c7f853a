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

import numpy as np

from repro.colstore import vectorops as V
from repro.engine.buffer import (
    CPU, NOTE, PAGES, SPAN, distinct_pages, page_runs,
)
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

def _descend(table, prefix):
    """Binary-search each *prefix* constant in the next sort column;
    returns the narrowed ``(lo, hi)`` and the ``(column, lo, hi)`` probes
    made, for :func:`_probe_charges`.  A constant missing from the
    dictionary (``None``) or an empty range ends the descent."""
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


def _probe_charges(rt, table, column, lo, hi):
    """The charges of one probe of the sorted *column* over rows ``[lo,
    hi)``: search CPU, then probe pages.  A descent's first probe spans
    the whole table whatever the constant, so it is resolved once per
    column into ``rt.resolved``."""
    whole = lo == 0 and hi == table.n_rows
    charges = rt.resolved.get((table.name, column, "probe")) if whole else None
    if charges is None:
        segment = table.segments[column]
        pages = _probe_pages(segment, table.encodings.get(column), lo, hi)
        charges = (
            (CPU, rt.costs.select_tuple * (2 * math.log2(max(hi - lo, 2)))),
            (PAGES, segment, page_runs(segment, pages), False),
        )
        if whole:
            rt.resolved[table.name, column, "probe"] = charges
    return charges


def _probe_pages(segment, encoding, lo, hi):
    """Deterministic bisection probe pages within the row range (mapped
    through the compressed byte layout when *encoding* is not None), as
    an ascending array of distinct page numbers."""
    probed = []
    a, b = lo, hi
    for _ in range(64):
        if a >= b:
            break
        mid = (a + b) // 2
        probed.append(
            mid * VALUE_BYTES if encoding is None
            else encoding.probe_byte(mid)
        )
        b = mid  # descend left; the exact path doesn't matter for cost
        if b - a <= segment.page_size // VALUE_BYTES:
            break
    return distinct_pages(
        np.array(probed, dtype=np.int64) // segment.page_size
    )


def _dense_charges(rt, table, column, lo, hi):
    """The charges of reading rows ``[lo, hi)`` of *column*: its
    compressed byte ranges and a compressed-read note when it is encoded,
    the raw bytes otherwise.  A whole column's are resolved once per
    stored column into ``rt.resolved``."""
    whole = lo == 0 and hi == table.n_rows
    charges = rt.resolved.get((table.name, column)) if whole else None
    if charges is None:
        segment, encoding = table.segments[column], table.encodings.get(column)
        if encoding is None:
            ranges = [(lo * VALUE_BYTES, (hi - lo) * VALUE_BYTES)]
        else:
            ranges = encoding.byte_ranges(lo, hi)
        charges = tuple(
            (SPAN, segment, *segment.page_span(*r)) for r in ranges
        )
        if encoding is not None:
            charges += ((
                NOTE, _note_compressed_read,
                sum(length for _, length in ranges), (hi - lo) * VALUE_BYTES,
            ),)
        if whole:
            rt.resolved[table.name, column] = charges
    return charges


def _note_compressed_read(rt, nbytes, logical_nbytes):
    rt.engine.compression_counts.note_scan(nbytes, logical_nbytes)
    tracer = rt.engine.tracer
    if tracer.enabled:
        tracer.current_add(
            bytes_scanned=int(nbytes),
            logical_bytes_scanned=int(logical_nbytes),
        )


def _note_runs_skipped(rt, n):
    rt.engine.compression_counts.note_runs_skipped(n)
    tracer = rt.engine.tracer
    if tracer.enabled:
        tracer.current_add(runs_skipped=int(n))


def _run_charges(rt, table, column, lo, hi, cpu, skipped):
    """The charges of evaluating RLE-encoded *column* over rows ``[lo,
    hi)`` run by run: its dense read, *cpu*, then a note of the *skipped*
    rows when there are any."""
    charges = _dense_charges(rt, table, column, lo, hi) + ((CPU, cpu),)
    if skipped > 0:
        charges += ((NOTE, _note_runs_skipped, skipped),)
    return charges


def _fetch_charges(rt, table, column, lo, hi, positions, charges):
    """Append to *charges* the I/O of reading *column* for the candidate
    rows: the dense range ``[lo, hi)`` when *positions* is None, else the
    pages the positions touch.  The column's physical encoding decides
    which bytes those are (compressed byte ranges / run pages instead of
    raw ones).

    Buffer-pool request counts depend on global access order (sequential
    coalescing, run chunking, the scattered-read penalty), so the list is
    charged from the coordinator's serial cost replay — never from a
    data-plane task.
    """
    if positions is None:
        charges.extend(_dense_charges(rt, table, column, lo, hi))
        return
    if len(positions) == 0:
        return
    segment, encoding = table.segments[column], table.encodings.get(column)
    if encoding is not None:
        pages = encoding.pages_for_rows(positions, segment.page_size)
        charges.append((PAGES, segment, page_runs(segment, pages), True))
        charges.append((
            NOTE, _note_compressed_read,
            len(pages) * segment.page_size, len(positions) * VALUE_BYTES,
        ))
        return
    pages = positions * VALUE_BYTES // segment.page_size
    steps = pages[1:] - pages[:-1]
    if steps.size and steps.min() < 0:
        # Not in row order (a join's matches): the distinct pages,
        # ascending.
        pages = distinct_pages(pages)
    else:
        pages = pages[np.concatenate(([True], steps > 0))]
    charges.append((PAGES, segment, page_runs(segment, pages), True))


def _needed_base_columns(scan, needed):
    """Base column names for the needed outputs, in scan output order."""
    base_needed = []
    for col in scan.output_columns():
        if col in needed:
            base_needed.append(scan.base_column(col))
    return base_needed


def _split_predicates(scan, table, predicates):
    """``(prefix, residual)`` of simple *predicates*: the constants of the
    equalities that follow *table*'s sort order (the first per sort column,
    until one has none), for :func:`_descend`; every other predicate as a
    ``(base column, predicate)`` pair, grouped by column in order."""
    by_base = {}
    for pred in predicates:
        by_base.setdefault(scan.base_column(pred.column), []).append(pred)
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


#: One table access, resolved once per catalog (:func:`_resolve_access`):
#: the *table*; its *residual* stages as ``(base column, predicate,
#: array, runs)`` — the column's array and its RLE encoding, or None when
#: it is not run-length encoded; the rows ``[lo, hi)`` its sorted-prefix
#: descent left; the charges of that descent's *probes*; and the arrays
#: of the columns it *gathers*.  A fused scan keeps one in its
#: :class:`_ScanPlan`, a template union one per branch.
_Access = namedtuple("_Access", "table residual lo hi probes gathers")


def _resolve_access(rt, table, split, fetch_cols):
    """The :class:`_Access` of *table* under a :func:`_split_predicates`
    *split*, gathering the base columns *fetch_cols*: the descent runs
    here, and its probes become charges."""
    prefix, residual = split
    lo, hi, probes = _descend(table, prefix)
    return _Access(
        table,
        tuple(
            (base_col, pred, table.array(base_col),
             _rle_encoding(table, base_col))
            for base_col, pred in residual
        ),
        lo, hi,
        tuple(
            c for probe in probes for c in _probe_charges(rt, table, *probe)
        ),
        tuple(table.array(column) for column in fetch_cols),
    )


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


def _scan_range(access, lo, hi):
    """Data plane for rows ``[lo, hi)`` of *access*: evaluate its residual
    predicates stage by stage and gather its columns.  Returns
    ``(stage_positions, gathers)`` — masks are row-local, so the
    range-ordered concatenation of each stage equals the whole-range
    stage arrays exactly.

    On the dense first stage a physically RLE-encoded column is evaluated
    once per run instead of once per row; the mask is identical by the
    run-length identity (every row of a run shares the run's value).
    """
    stages = []
    local = None  # None means the dense range [lo, hi)
    for _, pred, array, runs in access.residual:
        if local is None:
            if runs is not None:
                run_values, run_counts = runs.runs_overlapping(lo, hi)
                mask = np.repeat(pred.mask(run_values), run_counts)
            else:
                mask = pred.mask(array[lo:hi])
            local = lo + np.nonzero(mask)[0]
        elif len(local):
            local = local[pred.mask(array[local])]
        stages.append(local)
    rows = slice(lo, hi) if local is None else local
    return stages, [array[rows] for array in access.gathers]


def _scan_charges(rt, access, fetch_cols, stages, charges):
    """Append to *charges* what *access* charges after its descent: each
    residual stage, then each gather of *fetch_cols*, over its range and
    the positions each stage kept (*stages*, merged over ranges); all are
    skipped once no candidate is left."""
    table, residual, lo, hi = access[:4]
    count = hi - lo
    positions = None  # None means the dense range [lo, hi)
    for stage, (base_col, _, _, runs) in enumerate(residual):
        if count == 0:
            return
        if positions is None and runs is not None:
            n_runs = runs.run_index(hi - 1) - runs.run_index(lo) + 1
            charges.extend(_run_charges(
                rt, table, base_col, lo, hi,
                rt.costs.select_tuple * n_runs, count - n_runs,
            ))
        else:
            _fetch_charges(rt, table, base_col, lo, hi, positions, charges)
            charges.append((CPU, rt.costs.select_tuple * count))
        positions = stages[stage]
        count = len(positions)
    for base_col in fetch_cols if count else ():
        _fetch_charges(rt, table, base_col, lo, hi, positions, charges)
        charges.append((CPU, rt.costs.scan_tuple * count))


#: What a fused scan+select resolved for its physical node under the
#: *needed* outputs, kept on the node (``PhysicalPlan.resolved``) and so
#: dropped with the lowered tree when the catalog changes: its
#: :class:`_Access`, the needed base columns, and — filled by the first
#: replay — the charges of its stages and gathers.
_ScanPlan = namedtuple("_ScanPlan", "needed access base_needed charges")


def _scan_select(rt, pnode, scan, predicates, needed):
    """Scan with fused selection: binary-searchable sorted prefix on the
    coordinator (it narrows the range the morsels split), then
    column-at-a-time residual predicates and gathers per range.  What it
    charges is resolved by the first run and replayed by every later one."""
    plan = pnode.resolved
    if plan is None or plan.needed != needed:
        table = rt.engine.table(scan.table)
        base_needed = _needed_base_columns(scan, needed)
        plan = pnode.resolved = _ScanPlan(
            frozenset(needed),
            _resolve_access(
                rt, table, _split_predicates(scan, table, predicates),
                base_needed,
            ),
            base_needed, None,
        )
    _, access, base_needed, _ = plan
    table, lo, hi = access.table, access.lo, access.hi
    if access.probes:
        rt.pool.read_spans(access.probes, rt)

    def replay(results):
        stages = [
            _merge(parts) for parts in zip(*(stages for stages, _ in results))
        ]
        charges = plan.charges
        if charges is None:
            charges = []
            _scan_charges(rt, access, base_needed, stages, charges)
            pnode.resolved = plan._replace(charges=charges)
        rt.pool.read_spans(charges, rt)
        columns = {
            scan.qualified(base_col): _merge([r[1][i] for r in results])
            for i, base_col in enumerate(base_needed)
        }
        if not columns:
            # Parent only needs the row count (e.g. a bare count(*)).
            count = len(stages[-1]) if stages else hi - lo
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
        [(access, mlo, mhi) for mlo, mhi in bounds],
        [mhi - mlo for mlo, mhi in bounds], replay,
    )


def _apply_predicates(rt, intermediate, predicates):
    """*intermediate*'s rows that pass every one of *predicates*, each
    charged one select per row."""
    rel = intermediate.relation
    mask = np.ones(rel.n_rows, dtype=bool)
    for pred in predicates:
        rt.clock.charge_cpu(rt.costs.select_tuple * max(rel.n_rows, 1))
        if is_column_comparison(pred):
            mask &= pred.mask(rel.column(pred.left), rel.column(pred.right))
        else:
            mask &= pred.mask(rel.column(pred.column))
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

def _rle_lead(engine, scan, column):
    """Whether *column* of *scan* is its table's leading sort column and
    the table physically stores that column run-length encoded."""
    if not isinstance(scan, L.Scan) or not engine.has_table(scan.table):
        return False
    table = engine.table(scan.table)
    return (
        bool(table.sort_order)
        and scan.base_column(column) == table.sort_order[0]
        and _rle_encoding(table, table.sort_order[0]) is not None
    )


def _read_lead_runs(rt, table):
    """Charge reading *table*'s RLE-encoded leading sort column run by run
    (CPU per run, the rows inside runs skipped); returns its encoding."""
    lead = table.sort_order[0]
    encoding = table.encodings[lead]
    rt.pool.read_spans(_run_charges(
        rt, table, lead, 0, table.n_rows,
        rt.costs.scan_tuple * max(encoding.n_runs, 1),
        table.n_rows - encoding.n_runs,
    ), rt)
    return encoding


def _guard_compressed_group(engine, node):
    return (
        isinstance(node, L.GroupBy)
        and not node.aggregates and len(node.keys) == 1
        and _rle_lead(engine, node.child, node.keys[0])
    )


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

    def grouped():
        # Maximal runs of the sorted leading column: run values are the
        # distinct keys in ascending order, run lengths their counts —
        # exactly group_count's output, without touching a single row.
        encoding = _read_lead_runs(rt, table)
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
    return (
        isinstance(node, L.Join) and len(node.on) == 1
        and _rle_lead(engine, node.right, node.on[0][1])
    )


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
        _read_lead_runs(rt, table)
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

    columns, charges = {}, []
    for name, arr in lrel.columns.items():
        if name in needed or name == lcol:
            columns[name] = arr[lidx]
    for qualified in scan.output_columns():
        if qualified not in needed and qualified != rcol:
            continue
        base = scan.base_column(qualified)
        if base != lead:
            # The key column's bytes were already read as runs; only the
            # other columns pay a positional fetch for the matches.
            _fetch_charges(
                rt, table, base, 0, table.n_rows, right_pos, charges,
            )
        charges.append((CPU, rt.costs.scan_tuple * max(n_out, 1)))
        columns[qualified] = table.array(base)[right_pos]
    rt.pool.read_spans(charges, rt)
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
            scan, lambda: _scan_select(rt, pnode, scan, simple, needed)
        )
    inner_needed = set(needed) | {c for p in cross for c in p.columns()}
    result = rt.traced_block(
        scan, lambda: _scan_select(rt, pnode, scan, simple, inner_needed)
    )
    return _apply_predicates(rt, result, cross)


@COLUMN_OPS.operator(
    "scan", match_type(L.Scan),
    "full-column scan (dense sequential reads of the needed columns)",
)
def scan(rt, pnode, needed):
    return _scan_select(rt, pnode, pnode.logical, [], needed)


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
    return _apply_predicates(
        rt, rt.run_child(pnode.children[0], child_needed), node.predicates
    )


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

class _UnionPlan:
    """A canonical template union resolved for one set of kept outputs,
    once per catalog (:func:`_resolve_union`).  *branches* are the
    :class:`_Access` of each binding's table.  *fetch_cols* are the base
    columns every branch reads, in scan column order (the charge order);
    *sources* names, per kept output, the position in *fetch_cols* that
    feeds it — ``None`` for the Extend fill.  *lengths* and *fills* are
    the branches' table lengths and Extend fills (int64 arrays).  A
    *plain* template — one without a selection — also holds its whole
    data plane: *columns*, per kept output, the branches' column arrays
    (``None`` for the fill); a selecting template has ``None``.

    *charges* is the union's charge list (``BufferPool.read_spans``,
    built by :func:`_union_charges`): every branch's probes, stages and
    gathers — resolved here for a plain template, filled in by the first
    replay for a selecting one (``None`` until then).  Beyond the charge
    list it holds only tuples and arrays: up to :data:`UNION_MEMO_SIZE`
    plans of 222 branches stay cached, and every container they keep
    alive is one more for each full garbage collection to walk."""

    __slots__ = (
        "branches", "fetch_cols", "sources", "lengths", "fills", "columns",
        "charges",
    )

    def __init__(self, branches, fetch_cols, sources, lengths, fills,
                 columns, charges):
        self.branches, self.fetch_cols, self.sources = (
            branches, fetch_cols, sources
        )
        self.lengths, self.fills = lengths, fills
        self.columns, self.charges = columns, charges


#: How many template-union plans one runtime memoises (LRU): a plan's key
#: holds its selection's constants, so a stream of distinct selecting
#: templates must not grow the memo without bound.
UNION_MEMO_SIZE = 64


def _canonical_shape(template, keep):
    """The shape of a canonical ``Project(Extend?(Select?(Scan)))`` union
    template with only simple predicates (the vertically-partitioned
    plans' one branch per property table: q8's selections, a describe's
    subject) for the kept outputs *keep*, whatever its table: ``(scan,
    predicates, extend column or None, sources)`` — *sources* the
    template column feeding each kept output — or ``None`` for any other
    shape.  Every part is hashable: it is the template's memo key."""
    if type(template) is not L.Project:
        return None
    inner = template.child
    extend_col = None
    if type(inner) is L.Extend:
        extend_col = inner.column
        inner = inner.child
    predicates = ()
    if type(inner) is L.Select:
        predicates = tuple(inner.predicates)
        if any(map(is_column_comparison, predicates)):
            return None
        inner = inner.child
    if type(inner) is not L.Scan:
        return None
    mapping = template.mapping
    return inner, predicates, extend_col, tuple(mapping[i][1] for i in keep)


def _union_charges(rt, branches, fetch_cols, stages):
    """A template union's charge list: per branch of *branches* in order,
    its probes, then its stages (*stages*, per branch) and gathers of
    *fetch_cols* — what its fused scan+select would charge."""
    charges = []
    for access, branch_stages in zip(branches, stages):
        charges.extend(access.probes)
        _scan_charges(rt, access, fetch_cols, branch_stages, charges)
    return charges


def _template_plan(rt, shape, bindings):
    """The :class:`_UnionPlan` of a template of *shape* bound to each of
    *bindings*."""
    scan_node, predicates, extend_col, needed = shape
    # Reproduce the operators' "needed columns" propagation exactly —
    # including extend's quirk of requesting the scan's first column
    # when nothing below the extended column is needed.
    scan_needed = set(needed) - {extend_col} or {scan_node._columns[0]}
    fetch_cols = tuple(_needed_base_columns(scan_node, scan_needed))
    sources = tuple(
        None if source == extend_col
        else fetch_cols.index(scan_node.base_column(source))
        for source in needed
    )
    # The predicate split depends only on the table's sort order.
    splits, branches = {}, []
    for table_name, _, _ in bindings:
        table = rt.engine.table(table_name)
        order = tuple(table.sort_order)
        if order not in splits:
            splits[order] = _split_predicates(scan_node, table, predicates)
        branches.append(
            _resolve_access(rt, table, splits[order], fetch_cols)
        )
    branches = tuple(branches)
    columns = charges = None
    if not predicates:
        columns = tuple(
            None if source is None else tuple(
                b.gathers[source] for b in branches
            )
            for source in sources
        )
        charges = _union_charges(
            rt, branches, fetch_cols, [()] * len(branches)
        )
    return _UnionPlan(
        branches, fetch_cols, sources,
        np.array([b.table.n_rows for b in branches], dtype=np.int64),
        np.array(
            [extend_fill_value(value) for _, _, value in bindings],
            dtype=np.int64,
        ),
        columns, charges,
    )


def _plain_range(plan, lo, hi):
    """Data plane of branches ``[lo, hi)`` of a plain template: each kept
    output built in one call; nothing to replay per branch."""
    return [
        np.repeat(plan.fills[lo:hi], plan.lengths[lo:hi]) if columns is None
        else np.concatenate(columns[lo:hi])
        for columns in plan.columns
    ], ()


def _select_range(plan, lo, hi):
    """Data plane of branches ``[lo, hi)`` of a selecting template: per
    kept output, the branches' selected rows (or constant Extend fills)
    concatenated in branch order; and, per branch, its stages for the
    first replay to charge."""
    fetch_cols, sources = plan.fetch_cols, plan.sources
    outputs = [[] for _ in sources]
    scans = []
    for access, fill in zip(plan.branches[lo:hi], plan.fills[lo:hi]):
        stages, gathers = _scan_range(access, access.lo, access.hi)
        scans.append(stages)
        for parts, source in zip(outputs, sources):
            parts.append(
                np.full(len(gathers[0]), fill, dtype=np.int64)
                if source is None else gathers[source]
            )
    return [_merge(parts) for parts in outputs], scans


def _resolve_union(rt, node, needed):
    """``(keep, out_keys, plan)`` of union *node* under *needed*: the kept
    output positions and names, and for a canonical template union its
    :class:`_UnionPlan` — resolved once per catalog, so every later union
    of the same bindings and template shape is one memo hit — else
    ``None``: the branches run through generic dispatch."""
    out_names = node._columns
    keep = tuple(
        i for i, name in enumerate(out_names) if name in needed
    ) or (0,)
    out_keys = tuple(out_names[i] for i in keep)
    shape = None
    if node.template is not None:
        shape = _canonical_shape(node.template, keep)
    if shape is None:
        return keep, out_keys, None
    scan_node = shape[0]
    key = (
        node.bindings, scan_node.alias, tuple(scan_node.base_columns),
        *shape[1:],
    )
    memo = rt.resolved_lru("unions", UNION_MEMO_SIZE)
    plan = memo.get(key)
    if plan is None:
        plan = _template_plan(rt, shape, node.bindings)
        memo.put(key, plan)
    return keep, out_keys, plan


def _branch_slices(lengths, rows):
    """``(bounds, rows per slice)`` of a template's branches: one slice
    of every branch on one lane (*rows* None); else consecutive slices
    closed once they hold *rows* table rows — deterministic, from branch
    order and static table sizes only, never the worker count."""
    n = len(lengths)
    if rows is None:
        return [(0, n)], [None]  # one range: rows unused
    starts, sizes = [0], [0]
    for index, length in enumerate(lengths.tolist()):
        if sizes[-1] >= rows:
            starts.append(index)
            sizes.append(0)
        sizes[-1] += length
    return list(zip(starts, starts[1:] + [n])), sizes


def _template_blocks(rt, plan):
    """Evaluate a template union's branches without generic dispatch (the
    operator machinery costs more wall-clock than 222 small arrays):
    per slice of branches, then one ``read_spans`` pass over the union's
    charge list — in branch order, the buffer reads and clock charges the
    generic operators would make: a plain branch's whole columns, a
    selecting branch exactly what its fused ``scan+select`` would.  The
    first replay of a selecting template resolves the list from its
    data-plane scans.  Returns the per-slice output blocks."""
    def replay(results):
        if plan.charges is None:
            # A selecting template: each branch's stages, in branch order.
            plan.charges = _union_charges(
                rt, plan.branches, plan.fetch_cols,
                (stages for _, group in results for stages in group),
            )
        rt.pool.read_spans(plan.charges, rt)
        return [block for block, _ in results]

    bounds, slice_rows = _branch_slices(plan.lengths, _morsel_rows(rt))
    return _run_ranges(
        rt, _plain_range if plan.columns is not None else _select_range,
        [(plan, lo, hi) for lo, hi in bounds], slice_rows, replay,
    )


@COLUMN_OPS.operator(
    "vector-union", match_type(L.Union),
    "concatenate branch vectors (a canonical "
    "Project(Extend?(Select?(Scan))) template union is evaluated per "
    "slice of branches and charged in branch order, identically to the "
    "generic operators; any other union dispatches its branches)",
)
def vector_union(rt, pnode, needed):
    node = pnode.logical
    if node.distinct:
        # Every column decides which rows are duplicates.
        needed = set(node.output_columns())
    keep, out_keys, plan = _resolve_union(rt, node, needed)
    if plan is not None:
        blocks = _template_blocks(rt, plan)
        oid = set(out_keys)  # scans and extends only produce oids
    else:
        blocks, oid = [], set()
        for child_pnode in pnode.children:
            names = child_pnode.logical.output_columns()
            kept = [names[i] for i in keep]
            rel = rt.run_child(child_pnode, set(kept)).relation
            blocks.append([rel.column(name) for name in kept])
            oid.update(
                out for out, name in zip(out_keys, kept)
                if name in rel.oid_columns
            )
    total_in = sum(len(block[0]) for block in blocks)
    columns = {
        out: _merge([block[k] for block in blocks])
        for k, out in enumerate(out_keys)
    }
    rt.clock.charge_cpu(rt.costs.union_tuple * max(total_in, 1))
    rel = Relation(columns, oid)
    return _distinct(rt, rel) if node.distinct else Intermediate(rel, ())


def _distinct(rt, rel):
    """*rel*'s distinct rows, sorted on every column."""
    rt.clock.charge_cpu(rt.costs.group_tuple * max(rel.n_rows, 1))
    idx = V.distinct_rows([rel.column(n) for n in rel.columns])
    columns = {n: a[idx] for n, a in rel.columns.items()}
    return Intermediate(Relation(columns, rel.oid_columns), tuple(columns))


@COLUMN_OPS.operator(
    "vector-distinct", match_type(L.Distinct),
    "deduplicate rows via multi-column factorization",
)
def vector_distinct(rt, pnode, needed):
    node = pnode.logical
    child = rt.run_child(pnode.children[0], set(node.output_columns()))
    return _distinct(rt, child.relation)


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
