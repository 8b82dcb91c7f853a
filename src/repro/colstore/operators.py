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
import numpy as np

from repro.colstore import vectorops as V
from repro.exec.common import (
    MISSING_VALUE,
    ascending_prefix,
    extend_fill_value,
    sort_cost,
)
from repro.exec.morsel import effective_dop, split_morsels
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
from repro.storage.compress import note_runs_skipped, note_scan

VALUE_BYTES = 8

COLUMN_OPS = EngineOperatorSet("column-store", paradigm="vector")


# ---------------------------------------------------------------------------
# base-table access helpers
# ---------------------------------------------------------------------------

def _base_column(scan, qualified):
    if scan.alias and qualified.startswith(scan.alias + "."):
        return qualified[len(scan.alias) + 1 :]
    return qualified


def _binary_search(rt, table, column, value, lo, hi):
    """Range of *value* in the sorted column; charges probe I/O + CPU."""
    if lo >= hi:
        return lo, lo
    array = table.array(column)
    if value is None:
        return lo, lo
    rt.clock.charge_cpu(
        rt.costs.select_tuple * (2 * math.log2(max(hi - lo, 2)))
    )
    segment = table.segment(column)
    encoding = table.physical_encoding(column)
    if encoding is not None:
        rt.pool.read_pages(
            segment, _probe_pages_compressed(segment, encoding, lo, hi)
        )
    else:
        rt.pool.read_pages(segment, _probe_pages(segment, lo, hi))
    new_lo = int(np.searchsorted(array[lo:hi], value, side="left")) + lo
    new_hi = int(np.searchsorted(array[lo:hi], value, side="right")) + lo
    return new_lo, new_hi


def _probe_pages(segment, lo, hi):
    """Deterministic bisection probe pages within the row range."""
    pages = set()
    a, b = lo, hi
    for _ in range(64):
        if a >= b:
            break
        mid = (a + b) // 2
        pages.add(mid * VALUE_BYTES // segment.page_size)
        b = mid  # descend left; the exact path doesn't matter for cost
        if b - a <= segment.page_size // VALUE_BYTES:
            break
    return sorted(pages)


def _probe_pages_compressed(segment, encoding, lo, hi):
    """Bisection probe pages mapped through the compressed byte layout."""
    pages = set()
    a, b = lo, hi
    for _ in range(64):
        if a >= b:
            break
        mid = (a + b) // 2
        pages.add(encoding.probe_byte(mid) // segment.page_size)
        b = mid  # descend left; the exact path doesn't matter for cost
        if b - a <= segment.page_size // VALUE_BYTES:
            break
    return sorted(pages)


def _read_compressed(rt, segment, encoding, lo, hi):
    """Read the compressed byte ranges covering rows ``[lo, hi)``."""
    nbytes = 0
    for offset, length in encoding.byte_ranges(lo, hi):
        rt.pool.read(segment, offset, length)
        nbytes += length
    _note_compressed_read(rt, segment, nbytes, (hi - lo) * VALUE_BYTES)


def _note_compressed_read(rt, segment, nbytes, logical_nbytes):
    note_scan(nbytes, logical_nbytes)
    observe = rt.engine.observe
    if not observe.enabled:
        return
    metrics = observe.metrics
    metrics.counter(
        "compress.bytes_scanned", segment=segment.name
    ).inc(int(nbytes))
    metrics.counter(
        "compress.logical_bytes_scanned", segment=segment.name
    ).inc(int(logical_nbytes))


def _note_runs_skipped(rt, segment, n):
    if n <= 0:
        return
    note_runs_skipped(n)
    observe = rt.engine.observe
    if observe.enabled:
        observe.metrics.counter(
            "compress.runs_skipped", segment=segment.name
        ).inc(int(n))


def _fetch_cost(rt, table, column, lo, hi, positions):
    """Charge exactly the I/O a :func:`_fetch` of the same rows would.

    Split out so the morsel coordinator can replay the serial charge
    sequence over worker-produced positions: buffer-pool request counts
    depend on global access order (sequential coalescing, run chunking,
    the scattered-read penalty), so cost accounting must stay a single
    serial stream even when the data work ran on many lanes.
    """
    segment = table.segment(column)
    encoding = table.physical_encoding(column)
    if positions is None:
        if encoding is not None:
            _read_compressed(rt, segment, encoding, lo, hi)
        else:
            rt.pool.read(segment, lo * VALUE_BYTES, (hi - lo) * VALUE_BYTES)
        return
    if len(positions) == 0:
        return
    if encoding is not None:
        pages = encoding.pages_for_rows(positions, segment.page_size)
        rt.pool.read_pages(segment, pages, scattered=True)
        _note_compressed_read(
            rt, segment, len(pages) * segment.page_size,
            len(positions) * VALUE_BYTES,
        )
    else:
        pages = np.unique(positions * VALUE_BYTES // segment.page_size)
        rt.pool.read_pages(segment, pages, scattered=True)


def _fetch(rt, table, column, lo, hi, positions):
    """Read column values for the candidate rows, charging I/O."""
    _fetch_cost(rt, table, column, lo, hi, positions)
    array = table.array(column)
    if positions is None:
        return array[lo:hi]
    if len(positions) == 0:
        return np.empty(0, dtype=np.int64)
    return array[positions]


def _scan_sortedness(scan, table, positions):
    # A dense range of a sorted table stays sorted; positional filtering
    # preserves order too (masks keep row order).
    return tuple(scan.qualified(c) for c in table.sort_order)


def _needed_base_columns(scan, needed):
    """Base column names for the needed outputs, in scan output order."""
    base_needed = []
    for col in scan.output_columns():
        if col in needed:
            base_needed.append(_base_column(scan, col))
    return base_needed


def _group_predicates(scan, predicates):
    """Predicates keyed by base column, preserving predicate order."""
    by_base = {}
    for pred in predicates:
        by_base.setdefault(_base_column(scan, pred.column), []).append(pred)
    return by_base


def _sorted_prefix(rt, table, by_base):
    """Binary-search the equality predicates that follow the sort order;
    returns the narrowed ``(lo, hi)`` range and the consumed predicate
    ids.  Charges probe I/O + CPU as it descends."""
    lo, hi = 0, table.n_rows
    consumed = set()
    for sort_col in table.sort_order:
        preds = by_base.get(sort_col, [])
        eq = next((p for p in preds if p.is_equality()), None)
        if eq is None:
            break
        lo, hi = _binary_search(rt, table, sort_col, eq.value, lo, hi)
        consumed.add(id(eq))
        if lo >= hi:
            break
    return lo, hi, consumed


def _scan_select(rt, scan, predicates, needed):
    """Scan with fused selection: binary-searchable sorted prefix, then
    column-at-a-time residual predicates over the candidates."""
    table = rt.engine.table(scan.table)
    base_needed = _needed_base_columns(scan, needed)
    by_base = _group_predicates(scan, predicates)
    lo, hi, consumed = _sorted_prefix(rt, table, by_base)
    return _scan_select_body(
        rt, scan, table, by_base, consumed, base_needed, lo, hi
    )


def _scan_select_body(rt, scan, table, by_base, consumed, base_needed,
                      lo, hi):
    """Residual predicates + needed-column gathers over ``[lo, hi)`` —
    the serial tail shared by the morsel dispatcher's fallback path."""
    positions = None  # None means the dense range [lo, hi)
    count = hi - lo
    # Remaining predicates: evaluate column-at-a-time over candidates.
    # On a dense range whose column carries a physical RLE codec, the
    # predicate runs once per run instead of once per row — the mask is
    # identical by the run-length identity (every row of a run shares the
    # run's value), only the CPU charge shrinks.
    for base_col, preds in by_base.items():
        for pred in preds:
            if id(pred) in consumed or count == 0:
                continue
            encoding = (
                table.physical_encoding(base_col)
                if positions is None else None
            )
            if encoding is not None and encoding.codec == "rle":
                segment = table.segment(base_col)
                run_values, run_counts = encoding.runs_overlapping(lo, hi)
                _read_compressed(rt, segment, encoding, lo, hi)
                n_runs = len(run_values)
                rt.clock.charge_cpu(rt.costs.select_tuple * max(n_runs, 1))
                _note_runs_skipped(rt, segment, count - n_runs)
                mask = np.repeat(pred.mask(run_values), run_counts)
            else:
                values = _fetch(rt, table, base_col, lo, hi, positions)
                rt.clock.charge_cpu(rt.costs.select_tuple * max(count, 1))
                mask = pred.mask(values)
            if positions is None:
                positions = lo + np.nonzero(mask)[0]
            else:
                positions = positions[mask]
            count = len(positions)

    columns = {}
    for base_col in base_needed:
        if count == 0:
            columns[scan.qualified(base_col)] = np.empty(0, dtype=np.int64)
            continue
        values = _fetch(rt, table, base_col, lo, hi, positions)
        rt.clock.charge_cpu(rt.costs.scan_tuple * count)
        columns[scan.qualified(base_col)] = values
    return _finish_scan(scan, table, columns, count, positions)


def _finish_scan(scan, table, columns, count, positions):
    if not columns:
        # Parent only needs the row count (e.g. a bare count(*)).
        columns["__rowid__"] = np.arange(count, dtype=np.int64)
    relation = Relation(columns, oid_columns=set(columns) - {"__rowid__"})
    sorted_by = _scan_sortedness(scan, table, positions)
    return Intermediate(relation, sorted_by)


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
# engine's table physically stores the relevant column RLE-encoded, so an
# uncompressed (or logical-mode) engine lowers exactly as before.

def _rle_leading_scan(engine, scan):
    """``(table, leading_sort_column, rle_encoding)`` when *scan*'s table
    physically stores its leading sort column run-length encoded."""
    if not engine.has_table(scan.table):
        return None
    table = engine.table(scan.table)
    if not table.sort_order:
        return None
    lead = table.sort_order[0]
    encoding = table.physical_encoding(lead)
    if encoding is None or encoding.codec != "rle":
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
    encoding = table.encoding(lead)
    segment = table.segment(lead)

    def grouped():
        # Maximal runs of the sorted leading column: run values are the
        # distinct keys in ascending order, run lengths their counts —
        # exactly group_count's output, without touching a single row.
        _read_compressed(rt, segment, encoding, 0, table.n_rows)
        n_runs = encoding.n_runs
        rt.clock.charge_cpu(rt.costs.scan_tuple * max(n_runs, 1))
        _note_runs_skipped(rt, segment, table.n_rows - n_runs)
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
    encoding = table.encoding(lead)
    segment = table.segment(lead)
    (lcol, rcol), = node.on

    left_cols = set(node.left.output_columns())
    left_needed = (needed & left_cols) | {lcol}
    left = rt.run_child(pnode.children[0], left_needed)
    lrel = left.relation

    def scan_runs():
        _read_compressed(rt, segment, encoding, 0, table.n_rows)
        rt.clock.charge_cpu(rt.costs.scan_tuple * max(encoding.n_runs, 1))
        _note_runs_skipped(rt, segment, table.n_rows - encoding.n_runs)
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
        if base == lead:
            # The key column's bytes were already read as runs; the
            # matched values materialize from the in-memory array.
            values = table.array(base)[right_pos]
        else:
            values = _fetch(rt, table, base, 0, table.n_rows, right_pos)
        rt.clock.charge_cpu(rt.costs.scan_tuple * max(n_out, 1))
        columns[qualified] = values
    scan_outputs = set(scan.output_columns())
    oid = (lrel.oid_columns | scan_outputs) & set(columns)
    # join_runs keeps left order, so left sortedness survives.
    return Intermediate(Relation(columns, oid), left.sorted_by)


# ---------------------------------------------------------------------------
# morsel-driven parallel access paths
# ---------------------------------------------------------------------------
#
# Guarded like the compressed kernels: they bind only when the live engine
# has a ParallelContext installed (``install_parallelism``), so a serial
# engine lowers exactly as before.  Workers perform pure data-plane numpy
# work (predicate masks, position narrowing, column gathers) and NEVER
# touch the clock or buffer pool; the coordinator replays the cost charges
# in the exact serial order over the merged positions, which makes rows
# AND simulated-cost documents bit-identical to serial execution at any
# worker count.  Tables with physical compression are excluded — the RLE
# run-level residual path and compressed byte-range fetches are inherently
# dense-range shaped (logical compression mode stays eligible because
# ``physical_encoding`` returns None there).

@matches(L.Select)
def _match_fused_scan(node):
    if isinstance(node, L.Select) and isinstance(node.child, L.Scan):
        return Lowered(fused=(node.child,))
    return None


def _parallel_context(engine):
    getter = getattr(engine, "parallelism", None)
    return getter() if getter is not None else None


def _parallel_table_ok(engine, table_name):
    if not engine.has_table(table_name):
        return False
    table = engine.table(table_name)
    return table.compress is None or table.compress.cost_mode != "physical"


def _guard_parallel_fused(engine, node):
    if _parallel_context(engine) is None:
        return False
    if not (isinstance(node, L.Select) and isinstance(node.child, L.Scan)):
        return False
    return _parallel_table_ok(engine, node.child.table)


def _guard_parallel_scan(engine, node):
    if _parallel_context(engine) is None:
        return False
    return isinstance(node, L.Scan) and _parallel_table_ok(engine, node.table)


def _make_morsel_scan_task(table, residual, base_needed, mlo, mhi):
    """Data-plane work for one morsel ``[mlo, mhi)``: evaluate the
    residual predicates stage by stage and gather the needed columns.
    Returns ``(stage_positions, gathers)`` — masks are row-local, so the
    morsel-index-ordered concatenation of each stage equals the serial
    stage arrays exactly."""

    def task():
        stages = []
        local = None
        for base_col, pred in residual:
            array = table.array(base_col)
            if local is None:
                mask = pred.mask(array[mlo:mhi])
                local = mlo + np.nonzero(mask)[0]
            elif len(local):
                local = local[pred.mask(array[local])]
            stages.append(local)
        gathers = {}
        for base_col in base_needed:
            array = table.array(base_col)
            if local is None:
                gathers[base_col] = array[mlo:mhi]
            else:
                gathers[base_col] = array[local]
        return stages, gathers

    return task


def _morsel_span_attribution(rt, snap, wall0, task_rows, steals):
    """Fold the parallel section's clock delta into per-morsel child
    spans, apportioned by morsel row count (the last morsel takes the
    exact remainder, so the shares telescope back to the delta and the
    span-sum invariant holds to the bit)."""
    observe = rt.engine.observe
    tracer = observe.tracer
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
    tracer.current_add(morsels=len(task_rows), steals=int(steals))
    metrics = observe.metrics
    metrics.counter("parallel.batches").inc(1)
    metrics.counter("parallel.morsels").inc(len(task_rows))
    metrics.counter("parallel.steals").inc(int(steals))


def _parallel_scan_select(rt, scan, predicates, needed):
    """Morsel-parallel scan with fused selection.

    The sorted-prefix binary search stays on the coordinator (it narrows
    the range the morsels split).  Workers produce per-morsel stage
    positions and gathers; the coordinator merges them by morsel index
    and replays the residual/gather charges in serial order.
    """
    table = rt.engine.table(scan.table)
    context = _parallel_context(rt.engine)
    base_needed = _needed_base_columns(scan, needed)
    by_base = _group_predicates(scan, predicates)
    lo, hi, consumed = _sorted_prefix(rt, table, by_base)
    dop = effective_dop(rt, context)
    morsels = split_morsels(lo, hi, context.morsel_rows)
    if dop <= 1 or len(morsels) <= 1:
        # Nothing to parallelize (admission clamped the query to one
        # lane, or the range fits one morsel): run the serial body.
        return _scan_select_body(
            rt, scan, table, by_base, consumed, base_needed, lo, hi
        )
    residual = [
        (base_col, pred)
        for base_col, preds in by_base.items()
        for pred in preds
        if id(pred) not in consumed
    ]
    tasks = [
        _make_morsel_scan_task(table, residual, base_needed, mlo, mhi)
        for mlo, mhi in morsels
    ]
    observe = rt.engine.observe
    snap = rt.clock.profile_snapshot() if observe.enabled else None
    wall0 = wall_now()
    results, steals = context.pool.run_batch(
        tasks, dop, cancel_token=rt.cancel_token
    )

    # Coordinator cost replay — the exact serial charge sequence over the
    # merged positions (count==0 short-circuits match the serial loop).
    positions = None
    count = hi - lo
    for stage, (base_col, _pred) in enumerate(residual):
        if count == 0:
            continue
        _fetch_cost(rt, table, base_col, lo, hi, positions)
        rt.clock.charge_cpu(rt.costs.select_tuple * max(count, 1))
        positions = np.concatenate([r[0][stage] for r in results])
        count = len(positions)
    columns = {}
    for base_col in base_needed:
        qualified = scan.qualified(base_col)
        if count == 0:
            columns[qualified] = np.empty(0, dtype=np.int64)
            continue
        _fetch_cost(rt, table, base_col, lo, hi, positions)
        rt.clock.charge_cpu(rt.costs.scan_tuple * count)
        columns[qualified] = np.concatenate(
            [r[1][base_col] for r in results]
        )
    if observe.enabled:
        _morsel_span_attribution(
            rt, snap, wall0, [mhi - mlo for mlo, mhi in morsels], steals
        )
    return _finish_scan(scan, table, columns, count, positions)


@COLUMN_OPS.operator(
    "parallel-scan+select", _match_fused_scan,
    "morsel-parallel scan+select: workers evaluate residual masks and "
    "gathers per row range; the coordinator merges by morsel index and "
    "replays the serial cost sequence",
    guard=_guard_parallel_fused,
)
def parallel_scan_select(rt, pnode, needed):
    node = pnode.logical
    scan = node.child
    simple = [p for p in node.predicates if not is_column_comparison(p)]
    cross = [p for p in node.predicates if is_column_comparison(p)]
    if not cross:
        return rt.traced_block(
            scan, lambda: _parallel_scan_select(rt, scan, simple, needed)
        )
    inner_needed = set(needed) | {c for p in cross for c in p.columns()}
    result = rt.traced_block(
        scan, lambda: _parallel_scan_select(rt, scan, simple, inner_needed)
    )
    return _apply_cross(rt, result, cross)


@COLUMN_OPS.operator(
    "parallel-scan", match_type(L.Scan),
    "morsel-parallel full-column scan (dense per-range gathers merged "
    "by morsel index)",
    guard=_guard_parallel_scan,
)
def parallel_scan(rt, pnode, needed):
    return _parallel_scan_select(rt, pnode.logical, [], needed)


class _UnionBranchInfo:
    """Static per-branch facts the parallel union needs: the table, its
    row count, the columns to fetch (cost replay), the columns to gather
    (data plane), and the kept output mapping."""

    __slots__ = ("table", "count", "fetch_cols", "gather_cols",
                 "extend_out", "extend_value", "part_mapping")

    def __init__(self, table, count, fetch_cols, gather_cols, extend_out,
                 extend_value, part_mapping):
        self.table = table
        self.count = count
        self.fetch_cols = fetch_cols
        self.gather_cols = gather_cols
        self.extend_out = extend_out
        self.extend_value = extend_value
        self.part_mapping = part_mapping


def _union_branch_info(rt, child, out_names, keep):
    """Resolve one canonical ``Project(Extend?(Scan))`` union branch into
    a :class:`_UnionBranchInfo`, reproducing the fast path's needed-column
    propagation (including extend's first-column quirk) exactly."""
    mapping = child.mapping
    inner = child.child
    extend_node = None
    if type(inner) is L.Extend:
        extend_node = inner
        inner = inner.child
    scan_node = inner

    child_needed = {mapping[i][1] for i in keep}
    if extend_node is not None:
        scan_needed = child_needed - {extend_node.column}
        if not scan_needed:
            scan_needed = {scan_node.output_columns()[0]}
    else:
        scan_needed = child_needed

    table = rt.engine.table(scan_node.table)
    fetch_cols = [
        (qualified, _base_column(scan_node, qualified))
        for qualified in scan_node.output_columns()
        if qualified in scan_needed
    ]
    extend_out = None
    extend_value = 0
    if extend_node is not None and extend_node.column in child_needed:
        extend_out = extend_node.column
        extend_value = extend_fill_value(extend_node.value)
    gather_cols = [
        (qualified, base_col)
        for qualified, base_col in fetch_cols
        if any(mapping[i][1] == qualified for i in keep)
    ]
    part_mapping = [(out_names[i], mapping[i][1]) for i in keep]
    return _UnionBranchInfo(
        table, table.n_rows, fetch_cols, gather_cols, extend_out,
        extend_value, part_mapping,
    )


def _make_union_group_task(group, out_keys):
    """Data-plane work for one branch group: per-branch kept arrays
    (dense slices + constant extend fills), concatenated per output in
    branch order within the group."""

    def task():
        parts = []
        for info in group:
            fetched = {}
            for qualified, base_col in info.gather_cols:
                if info.count == 0:
                    fetched[qualified] = np.empty(0, dtype=np.int64)
                else:
                    fetched[qualified] = info.table.array(base_col)
            if info.extend_out is not None:
                fetched[info.extend_out] = np.full(
                    info.count, info.extend_value, dtype=np.int64
                )
            parts.append(
                {out: fetched[inner] for out, inner in info.part_mapping}
            )
        return {
            out: np.concatenate([part[out] for part in parts])
            for out in out_keys
        }

    return task


def _guard_parallel_union(engine, node):
    if _parallel_context(engine) is None:
        return False
    if not isinstance(node, L.Union):
        return False
    branches = list(node.children())
    if len(branches) < 2:
        return False
    for child in branches:
        if type(child) is not L.Project:
            return False
        inner = child.child
        extended = set()
        if type(inner) is L.Extend:
            extended = {inner.column}
            inner = inner.child
        if type(inner) is not L.Scan:
            return False
        if not _parallel_table_ok(engine, inner.table):
            return False
        legal = set(inner.output_columns()) | extended
        if any(source not in legal for _, source in child.mapping):
            return False
    return True


@matches(L.Union)
def _match_parallel_union(node):
    return Lowered(fused=tuple(node.children()))


@COLUMN_OPS.operator(
    "parallel-union", _match_parallel_union,
    "morsel-parallel union of canonical Project(Extend?(Scan)) branches: "
    "branch groups gather on workers, the coordinator replays per-branch "
    "charges in branch order",
    guard=_guard_parallel_union,
)
def parallel_union(rt, pnode, needed):
    node = pnode.logical
    context = _parallel_context(rt.engine)
    out_names = node.output_columns()
    keep = [i for i, name in enumerate(out_names) if name in needed]
    if not keep:
        keep = [0]
    branches = list(node.children())
    infos = [
        _union_branch_info(rt, child, out_names, keep) for child in branches
    ]
    total_in = sum(info.count for info in infos)

    # Group branches into morsel-sized chunks (deterministic: depends
    # only on branch order and static table sizes, never on workers).
    groups = []
    current, rows = [], 0
    for info in infos:
        current.append(info)
        rows += info.count
        if rows >= context.morsel_rows:
            groups.append(current)
            current, rows = [], 0
    if current:
        groups.append(current)

    dop = effective_dop(rt, context)
    out_keys = [out_names[i] for i in keep]
    oid = set(out_keys)  # scans and extends only produce oid columns

    if dop <= 1 or len(groups) <= 1:
        # Serial fallback: the fast path charges in branch order.
        parts = []
        for child in branches:
            part, _n_rows, _part_oid = _union_branch_fast(
                rt, child, out_names, keep
            )
            parts.append(part)
        columns = {
            out: np.concatenate([part[out] for part in parts])
            for out in out_keys
        }
    else:
        tasks = [_make_union_group_task(group, out_keys) for group in groups]
        observe = rt.engine.observe
        snap = rt.clock.profile_snapshot() if observe.enabled else None
        wall0 = wall_now()
        results, steals = context.pool.run_batch(
            tasks, dop, cancel_token=rt.cancel_token
        )
        # Replay the per-branch fetch charges in branch order.
        for info in infos:
            if info.count == 0:
                continue
            for _qualified, base_col in info.fetch_cols:
                _fetch_cost(rt, info.table, base_col, 0, info.count, None)
                rt.clock.charge_cpu(rt.costs.scan_tuple * info.count)
        if observe.enabled:
            _morsel_span_attribution(
                rt, snap, wall0,
                [sum(info.count for info in group) for group in groups],
                steals,
            )
        columns = {
            out: np.concatenate([block[out] for block in results])
            for out in out_keys
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
        # subject), so join_indices can skip its argsort.
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

def _union_branch_fast(rt, child, out_names, keep):
    """Evaluate a canonical union branch without generic dispatch.

    The vertically-partitioned plans union hundreds of
    ``Project(Extend?(Scan))`` branches (one per property table); the
    generic operator machinery costs more wall-clock than the arrays.
    This fused path performs the *same* buffer reads and clock charges
    in the same order as the generic operators — simulated timings are
    identical — and returns ``(columns, n_rows, oid_columns)``, or
    ``None`` for any other branch shape.
    """
    if type(child) is not L.Project:
        return None
    mapping = child.mapping
    inner = child.child
    extend_node = None
    if type(inner) is L.Extend:
        extend_node = inner
        inner = inner.child
    if type(inner) is not L.Scan:
        return None
    scan_node = inner

    # Reproduce the operators' "needed columns" propagation exactly —
    # including extend's quirk of requesting the scan's first column
    # when nothing below the extended column is needed.
    child_needed = {mapping[i][1] for i in keep}
    if extend_node is not None:
        scan_needed = child_needed - {extend_node.column}
        if not scan_needed:
            scan_needed = {scan_node.output_columns()[0]}
    else:
        scan_needed = child_needed

    table = rt.engine.table(scan_node.table)
    count = table.n_rows
    # Fetch in scan column order (the generic scan's charge order).
    fetched = {}
    for qualified in scan_node.output_columns():
        if qualified not in scan_needed:
            continue
        if count == 0:
            fetched[qualified] = np.empty(0, dtype=np.int64)
            continue
        base_col = _base_column(scan_node, qualified)
        fetched[qualified] = _fetch(rt, table, base_col, 0, count, None)
        rt.clock.charge_cpu(rt.costs.scan_tuple * count)
    if extend_node is not None and extend_node.column in child_needed:
        value = extend_fill_value(extend_node.value)
        fetched[extend_node.column] = np.full(count, value, dtype=np.int64)

    part = {}
    part_oid = set()
    for i in keep:
        out = out_names[i]
        part[out] = fetched[mapping[i][1]]
        part_oid.add(out)  # scans and extends only produce oid columns
    return part, count, part_oid


@COLUMN_OPS.operator(
    "vector-union", match_type(L.Union),
    "concatenate branch vectors (canonical Project(Extend?(Scan)) "
    "branches run a fused fast path with identical charges)",
)
def vector_union(rt, pnode, needed):
    node = pnode.logical
    out_names = node.output_columns()
    keep = [i for i, name in enumerate(out_names) if name in needed]
    if not keep:
        keep = [0]
    parts = []
    oid = set()
    total_in = 0
    for child_pnode in pnode.children:
        child = child_pnode.logical
        fast = _union_branch_fast(rt, child, out_names, keep)
        if fast is not None:
            part, n_rows, part_oid = fast
            total_in += n_rows
            oid |= part_oid
            parts.append(part)
            continue
        child_names = child.output_columns()
        child_needed = {child_names[i] for i in keep}
        result = rt.run_child(child_pnode, child_needed)
        rel = result.relation
        total_in += rel.n_rows
        part = {}
        for i in keep:
            src = child_names[i]
            part[out_names[i]] = rel.column(src)
            if src in rel.oid_columns:
                oid.add(out_names[i])
        parts.append(part)
    columns = {
        out_names[i]: np.concatenate([p[out_names[i]] for p in parts])
        for i in keep
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
