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
a pipelined parent pulls them a tuple at a time, and the work happens
inside generators while it does.  A materialising parent (the query's
result, both hash-join inputs, the index-nested-loop outer, sort and
group) drains its input instead (:meth:`Stream.drain
<repro.exec.runtime.Stream.drain>`): all rows at once, with the charges
a full pull logs, and the consumer's own per-row charge as a *suffix*
after each row's, so the clock folds the same floats in the same order.
A traced or cancellable run wraps every stream, brackets every pull with
the bound logical node's trace span (or polls the cancel token), and a
wrapped stream drains by pulling.

Per-tuple work stays out of the interpreter where it can: CPU charges
are appended to the clock's ordered pending log, an ``array('d')``
(:meth:`~repro.engine.clock.QueryClock.cpu_log_array` — same charges,
same order, folded exactly), one prebuilt pattern per row in a pull and
one repeated pattern per run of rows that log alike in a drain;
predicates are tested by one C-level call (``Comparison.test``), and
tuples are reshaped by one C-level callable built once per stream
(:func:`_row_shaper`).  A base-table access is worked out once per
lowered node (:func:`_resolve_access`), an index-nested-loop probe once
per outer row (:func:`_index_access`): a run charges its descent and heap
read in one buffer-pool pass and then loops over the rows.  A join's
index-nested-loop candidate is resolved once per lowered node as well
(:func:`_resolve_index_join`), and a union's Project/Extend branches over
an access once per catalog (:func:`_resolve_branch`): a drained union
concatenates their memoised rows and charges them all in one pass.
"""

from array import array
from collections import Counter, namedtuple
from functools import lru_cache
from itertools import compress, groupby, islice, repeat
from operator import add, itemgetter

from repro.engine.buffer import CPU, LOG, NOTE, PAGES, SPAN, _page_runs
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

#: Rows the per-catalog union-branch memo holds at most (an LRU in
#: ``Runtime.resolved["branches"]`` weighed by :func:`_branch_weight`; a
#: branch over the whole budget is not kept), about 5 MB of 3-column
#: rows.  The 12 named queries read 888 branches that weigh 19 121 on a
#: 5 000-triple vertical store, and 182 177 on a 60 000-triple one.
BRANCH_MEMO_ROWS = 1 << 16

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

#: One base-table access, resolved once per lowered node and catalog
#: (:func:`_resolve_access`) and kept on the node
#: (``PhysicalPlan.resolved``), or once per index-nested-loop probe: its
#: output *columns*, the heap *rows* it reads in read order (the whole
#: heap, or the rows the index descent found), the *charges* of the descent and the heap read as one
#: :meth:`~repro.engine.buffer.BufferPool.read_spans` list, the residual
#: ``(position, test)`` and *cross* ``(left, right, test)`` predicates,
#: and the *shape* of an emitted tuple.
_Access = namedtuple("_Access", "columns rows charges preds cross shape")


def _resolve_access(rt, scan, predicates):
    """The :class:`_Access` of *scan* under *predicates*: the index
    choice and its descent happen here, and charge nothing."""
    table = rt.engine.table(scan.table)
    position = table.column_position
    # Physical rows carry every table column; the scan may expose a
    # subset (e.g. one property column of the wide property table), so
    # each emitted tuple is projected to the declared columns.
    shape = _row_shaper([position(c) for c in scan.base_columns])
    cross = tuple(
        (
            position(scan.base_column(p.left)),
            position(scan.base_column(p.right)),
            p.test,
        )
        for p in predicates
        if is_column_comparison(p)
    )
    base_preds = [
        (scan.base_column(p.column), p)
        for p in predicates
        if not is_column_comparison(p)
    ]
    columns = scan.output_columns()
    # An equality against a constant missing from the dictionary can
    # never match: no rows, no I/O.
    if any(p.value is None and p.is_equality() for _, p in base_preds):
        return _Access(columns, (), (), (), cross, shape)

    eq_values = {}
    for col, p in base_preds:
        if p.is_equality() and col not in eq_values:
            eq_values[col] = p.value

    index, prefix_len = _choose_index(table, set(eq_values))
    heap = table.heap_segment
    if index is None:
        return _Access(
            columns, table.rows, ((SPAN, heap, *heap.page_span()),),
            tuple((position(col), p.test) for col, p in base_preds),
            cross, shape,
        )
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
    return _index_access(
        rt, table, index, prefix, columns,
        tuple(
            (position(col), p.test)
            for col, p in base_preds
            if id(p) not in consumed_ids
        ),
        cross, shape,
    )


def _index_access(rt, table, index, prefix, columns, preds, cross, shape):
    """The :class:`_Access` of *table*'s rows under *prefix* of *index*:
    the B+tree descent happens here and charges nothing; its node visits
    and the heap read become the access's charge list."""
    row_ids, pages = index.tree.prefix_pages(prefix)
    charges = _descent_charges(rt, index, pages)
    if row_ids:
        charges += _heap_charges(table, index, row_ids)
    return _Access(
        columns, list(map(table.rows.__getitem__, row_ids)), charges,
        preds, cross, shape,
    )


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


def _descent_charges(rt, index, pages):
    """The charges of visiting the index nodes on *pages*, in order: per
    node a one-page read, its CPU, and a note that counts the visit."""
    segment, tree = index.segment, index.tree
    base = segment.page_span()[0]
    node = (CPU, rt.costs.btree_node)
    visit = (NOTE, _note_node_visit, tree)
    charges = ()
    for page in pages:
        charges += (
            (PAGES, segment, ((base + page, base + page + 1),), False),
            node, visit,
        )
    return charges


def _note_node_visit(rt, tree):
    tree.node_visits += 1
    tracer = rt.pool.tracer
    if tracer.enabled:
        tracer.current_add(btree_node_visits=1)


def _heap_charges(table, index, row_ids):
    """The heap read of the non-empty *row_ids* found through *index*: a
    clustered index's rows are one contiguous range, a secondary's are
    fetched page by page in scattered order."""
    heap = table.heap_segment
    base = heap.page_span()[0]
    if index.clustered:
        first, last = table.heap_pages_of_range(min(row_ids), max(row_ids) + 1)
        return ((PAGES, heap, ((base + first, base + last),), False),)
    row_bytes, page_size = table.row_bytes, heap.page_size
    pages = sorted({row_id * row_bytes // page_size for row_id in row_ids})
    return ((PAGES, heap, _page_runs(pages, base), True),)


def _run_access(rt, access):
    """A stream over a resolved access: one charge-list pass for the
    descent and the heap read on the first pull, then the rows.  An
    access that :func:`_drain_access` can run drains in bulk; any other
    drains by pulling, one row at a time."""
    columns, rows, charges, preds, cross, shape = access
    costs = rt.costs

    def generate():
        if charges:
            rt.pool.read_spans(charges, rt)
        log = rt.clock.cpu_log_array()
        # A row is logged once, when its tests are done (nothing can fold
        # the log between its charges).
        patterns = _scan_patterns(
            costs.scan_tuple, costs.select_tuple, len(preds) + len(cross),
        )
        if not (preds or cross):
            scan = patterns[0]
            for row in rows:
                log += scan
                yield shape(row)
            return
        for row in rows:
            tested = 1
            for pos, test in preds:
                if not test(row[pos]):
                    break
                tested += 1
            else:
                for left, right, test in cross:
                    if not test(row[left], row[right]):
                        break
                    tested += 1
                else:
                    log += patterns[tested - 1]
                    yield shape(row)
                    continue
            log += patterns[tested]

    drain = None
    if _drains_in_bulk(access):
        def drain(suffix):
            return list(map(shape, _drain_access(rt, access, suffix)))

    return Stream(columns, generate(), drain)


@lru_cache(maxsize=None)
def _scan_patterns(scan_tuple, select_tuple, tests):
    """``patterns[k]``: a scanned row's ``scan_tuple`` and *k*
    ``select_tuple``s, one per predicate tested, for k up to *tests*."""
    return tuple(
        array("d", (scan_tuple,) + (select_tuple,) * k)
        for k in range(tests + 1)
    )


def _drains_in_bulk(access):
    """Whether :func:`_drain_access` can run *access*: no cross predicate
    and at most one residual predicate."""
    return not access.cross and len(access.preds) <= 1


def _drain_access(rt, access, suffix):
    """The heap rows *access* keeps, unshaped, read and charged in bulk:
    one charge-list pass, then the log gets every row's charges in the
    order the per-row loop logs them — ``scan_tuple``, a ``select_tuple``
    for the residual predicate, and *suffix* after each kept row's — as
    one repeated pattern per run of rows that log the same."""
    rows, charges, preds = access.rows, access.charges, access.preds
    if charges:
        rt.pool.read_spans(charges, rt)
    log = rt.clock.cpu_log_array()
    if not preds:
        log += array("d", (rt.costs.scan_tuple, *suffix)) * len(rows)
        return rows
    (pos, test), = preds
    mask = [test(row[pos]) for row in rows]
    if suffix:
        patterns = _kept_patterns(rt.costs, suffix)
        for kept, length in _runs(mask):
            log += patterns[kept] * length
    else:
        log += (array("d", (rt.costs.scan_tuple, rt.costs.select_tuple))
                * len(rows))
    return compress(rows, mask)


def _runs(mask):
    """``(kept, length)`` per run of equal outcomes in *mask*."""
    return [(kept, len(list(run))) for kept, run in groupby(mask)]


def _kept_patterns(costs, suffix):
    """``(failed, kept)``: what a row of an access with one residual
    predicate logs — ``scan_tuple`` and ``select_tuple``, and the
    non-empty *suffix* after a kept row's."""
    fail = array("d", (costs.scan_tuple, costs.select_tuple))
    return fail, fail + array("d", suffix)


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
    return _run_access(rt, _access_of(rt, pnode))


def _access_of(rt, pnode):
    """The :class:`_Access` of an ``access-path`` node, resolved on its
    first use and kept on the node."""
    access = pnode.resolved
    if access is None:
        node = pnode.logical
        if isinstance(node, L.Select):
            access = _resolve_access(rt, node.child, node.predicates)
        else:
            access = _resolve_access(rt, node, ())
        pnode.resolved = access
    return access


# ---------------------------------------------------------------------------
# pipelined operators
# ---------------------------------------------------------------------------

def _filter(rt, stream, predicates):
    compiled = []
    for p in predicates:
        if is_column_comparison(p):
            compiled.append(
                (stream.position(p.left), stream.position(p.right), p.test)
            )
        else:
            compiled.append((stream.position(p.column), None, p.test))

    # tested[k]: the ``select_tuple``s of k predicates tested; a row is
    # logged once, when its tests are done.
    tested = [
        array("d", (rt.costs.select_tuple,) * k)
        for k in range(len(compiled) + 1)
    ]
    passed = tested[-1]

    def generate():
        log = rt.clock.cpu_log_array()
        for row in stream:
            n = 1
            for left, right, test in compiled:
                if right is None:
                    if not test(row[left]):
                        break
                elif not test(row[left], row[right]):
                    break
                n += 1
            else:
                log += passed
                yield row
                continue
            log += tested[n]

    if not stream.materialised:
        return Stream(stream.columns, generate())

    def drain(suffix):
        # A HAVING over a group: drained by a plain loop, it makes no
        # call per group.  The input's rows log nothing of their own, so
        # the filter's charges and *suffix* are all a row adds to the log.
        log = rt.clock.cpu_log_array()
        kept_log = passed + array("d", suffix)
        kept = []
        keep = kept.append
        for row in stream.drain():
            n = 1
            for left, right, test in compiled:
                if right is None:
                    if not test(row[left]):
                        break
                elif not test(row[left], row[right]):
                    break
                n += 1
            else:
                keep(row)
                log += kept_log
                continue
            log += tested[n]
        return kept

    return Stream(stream.columns, generate(), drain)


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
    return Stream(
        [o for o, _ in mapping], map(shape, stream),
        lambda suffix: list(map(shape, stream.drain(suffix))),
    )


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
    table = rt.engine.table(scan.table)
    index, _ = _choose_index(table, {scan.base_column(join_col)})
    if index is None:
        return None
    return scan, predicates, table, index


def _index_nested_loop(rt, outer, outer_col, scan, inner_preds,
                       table, index, swap):
    """Probe *index* once per outer row: each probe is the
    :class:`_Access` of the rows under the outer row's join value, run
    like any other access, and every inner row it yields is a match."""
    outer_pos = outer.position(outer_col)
    inner_columns = scan.output_columns()
    if swap:
        out_columns = inner_columns + outer.columns
    else:
        out_columns = outer.columns + inner_columns
    position = table.column_position
    preds = tuple(
        (position(scan.base_column(p.column)), p.test) for p in inner_preds
    )
    shape = _row_shaper([position(c) for c in scan.base_columns])
    union = array("d", (rt.costs.union_tuple,))

    def generate():
        log = rt.clock.cpu_log_array()
        for outer_row in outer:
            probe = _index_access(
                rt, table, index, (outer_row[outer_pos],), inner_columns,
                preds, (), shape,
            )
            for inner_row in _run_access(rt, probe):
                log += union
                if swap:
                    yield inner_row + outer_row
                else:
                    yield outer_row + inner_row

    return Stream(out_columns, generate())


def _hash_join_streams(rt, left, right, on):
    left_rows = left.drain()
    right_rows = right.drain()
    # The join key never leaves this operator, so a one-column key may
    # stay the bare value itemgetter returns.
    lkey = itemgetter(*(left.position(l) for l, _ in on))
    rkey = itemgetter(*(right.position(r) for _, r in on))
    costs, clock = rt.costs, rt.clock
    probe = array("d", (costs.hash_probe,))
    union = array("d", (costs.union_tuple,))

    if len(left_rows) <= len(right_rows):
        build_rows, build_key = left_rows, lkey
        probe_rows, probe_key = right_rows, rkey
        build_is_left = True
    else:
        build_rows, build_key = right_rows, rkey
        probe_rows, probe_key = left_rows, lkey
        build_is_left = False

    def build():
        table = {}
        # The build input is materialized: nothing interleaves with its
        # per-row charges, so they are logged as one run.
        clock.charge_cpu_many(costs.hash_build, len(build_rows))
        for row in build_rows:
            table.setdefault(build_key(row), []).append(row)
        return table

    def generate():
        table = build()
        log = clock.cpu_log_array()
        for row in probe_rows:
            log += probe
            matches = table.get(probe_key(row), ())
            for match in matches:
                log += union
                if build_is_left:
                    yield match + row
                else:
                    yield row + match

    def drain(suffix):
        # The pull loop without its yields: *suffix* follows each
        # match's ``union_tuple``.
        get = build().get
        per_match = union + array("d", suffix)
        log = clock.cpu_log_array()
        rows = []
        emit = rows.append
        for row in probe_rows:
            log += probe
            matches = get(probe_key(row))
            if matches:
                for match in matches:
                    log += per_match
                    emit(match + row if build_is_left else row + match)
        return rows

    return Stream(left.columns + right.columns, generate(), drain)


#: ``adaptive_join``'s index-nested-loop candidate, resolved once per
#: lowered node (``PhysicalPlan.resolved``): the *inner* side's physical
#: node, whose base access has an index leading on the join column, the
#: *outer* side's node and join column, whether the inner side is the
#: join's left (*swap*), the inner access's scan, residual predicates,
#: table and index, and the bytes one probe reads cold at most
#: (*probe_bytes*: the index's height plus a heap page).
_IndexJoin = namedtuple(
    "_IndexJoin",
    "inner outer outer_col swap scan preds table index probe_bytes",
)


def _resolve_index_join(rt, pnode):
    """The :class:`_IndexJoin` of a one-column join whose right side (or,
    failing that, its left) could be probed through an index, else
    ``()``."""
    node = pnode.logical
    if len(node.on) != 1:
        return ()
    (lcol, rcol), = node.on
    left, right = pnode.children
    for inner, inner_col, outer, outer_col, swap in (
        (right, rcol, left, lcol, False),
        (left, lcol, right, rcol, True),
    ):
        candidate = _inner_candidate(rt, inner.logical, inner_col)
        if candidate is not None:
            _, _, table, index = candidate
            probe_pages = 1 + index.tree.height()
            return _IndexJoin(
                inner, outer, outer_col, swap, *candidate,
                probe_pages * table.heap_segment.page_size,
            )
    return ()


@ROW_OPS.operator(
    "adaptive-join", match_type(L.Join),
    "index nested loops when an inner index leads on the join column and "
    "the materialized outer is small enough, hash join otherwise "
    "(policy via the runtime's join_strategy knob)",
)
def adaptive_join(rt, pnode):
    node = pnode.logical
    choice = pnode.resolved
    if choice is None:
        choice = pnode.resolved = _resolve_index_join(rt, pnode)
    if rt.join_strategy != "hash" and choice:
        inner_pnode, outer_pnode, outer_col, swap, scan, inner_preds, \
            table, index, probe_bytes = choice
        # Materialize the outer to learn its cardinality: a small outer
        # probes the index; a large one would touch more pages than a
        # scan, so the optimizer falls back to a hash join.
        outer = rt.build_child(outer_pnode)
        rows = outer.drain()
        materialized = Stream(outer.columns, iter(rows))
        # Cost rule: each probe touches ~(height + 1) pages cold, so
        # prefer the index only when that upper bound beats a scan.
        if rt.join_strategy == "inl" or (
            len(rows) <= INL_MAX_OUTER
            and len(rows) * probe_bytes < max(table.heap_segment.nbytes, 1)
        ):
            return _index_nested_loop(
                rt, materialized, outer_col, scan, inner_preds,
                table, index, swap=swap,
            )
        inner_stream = rt.build_child(inner_pnode)
        if swap:
            return _hash_join_streams(rt, inner_stream, materialized, node.on)
        return _hash_join_streams(rt, materialized, inner_stream, node.on)
    left_pnode, right_pnode = pnode.children
    left = rt.build_child(left_pnode)
    right = rt.build_child(right_pnode)
    return _hash_join_streams(rt, left, right, node.on)


# ---------------------------------------------------------------------------
# grouping, union, distinct
# ---------------------------------------------------------------------------

def _materialised(rt, columns, build):
    """A stream over the list *build* returns, built on the first pull or
    by a drain.  Its rows log nothing of their own, so a drain's suffix is
    one run of *suffix* per row."""
    log = rt.clock.cpu_log_array()

    def generate():
        yield from build()

    def drain(suffix):
        rows = build()
        log.extend(array("d", suffix) * len(rows))
        return rows

    return Stream(columns, generate(), drain, materialised=True)


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
    row_charge = group_unit_cost(rt.costs, len(agg_specs))

    def groups():
        rows = child.drain((row_charge,))
        if not agg_specs:
            if not node.keys:
                return [(len(rows),)]
            counts = Counter(map(group_key, rows))
            return [key + (counts[key],) for key in sorted(counts)]
        counts = {}
        accumulators = {}
        for row in rows:
            key = group_key(row)
            counts[key] = counts.get(key, 0) + 1
            current = accumulators.get(key)
            if current is None:
                accumulators[key] = [row[pos] for _, pos in agg_specs]
            else:
                for i, (func, pos) in enumerate(agg_specs):
                    current[i] = update_accumulator(func, current[i], row[pos])
        if not node.keys:
            return [(len(rows),) + tuple(
                accumulators.get((), [MISSING_VALUE] * len(agg_specs))
            )]
        return [
            key + (counts[key],) + tuple(accumulators[key])
            for key in sorted(counts)
        ]

    return _materialised(rt, node.output_columns(), groups)


#: A union branch the drain may replay, resolved once per lowered node
#: (:func:`_resolve_branch`): its memo *key* (table, base-column
#: predicates, output sources, Extend constants), its ``access-path``
#: node *access*, the *shape* of an output row from ``heap_row + tail``,
#: and the Extend constants *tail*.
_BranchSpec = namedtuple("_BranchSpec", "key access shape tail")

#: What the per-catalog memo keeps of a branch (:func:`_branch_rows`):
#: its access's *charges* (descent and heap read), its shaped output
#: *rows*, and for an access with a residual predicate the *runs*
#: ``(kept, length)`` of its heap rows' outcomes (``None`` without one).
#: A drain builds the rows' charges from these on every run.
_BranchRows = namedtuple("_BranchRows", "charges rows runs")


def _resolve_branch(rt, pnode):
    """The :class:`_BranchSpec` of a union branch that is Project / Extend
    steps over a base-table access with no cross predicate, else
    ``None``.  Its rows and charges depend only on the catalog and the
    spec's key, so one memo per catalog (``rt.resolved["branches"]``,
    dropped with everything else
    :meth:`~repro.exec.runtime.Runtime.forget_lowered` drops) serves
    every plan that reads the same branch, and a plan whose branches are
    all in it resolves none of their accesses."""
    steps = []
    while pnode.op.fn is project or pnode.op.fn is extend:
        steps.append(pnode.logical)
        pnode = pnode.children[0]
    if pnode.op.fn is not access_path:
        return None
    node = pnode.logical
    scan, predicates = (
        (node.child, node.predicates) if isinstance(node, L.Select)
        else (node, ())
    )
    base_preds = ()
    for p in predicates:
        if is_column_comparison(p):
            return None
        base_preds += ((scan.base_column(p.column), p.op, p.value),)
    table = rt.engine.table(scan.table)
    width = len(table.columns)
    # Where each column of the rows so far comes from in ``heap_row +
    # tail``.
    columns = scan.output_columns()
    sources = [table.column_position(c) for c in scan.base_columns]
    tail = ()
    for step in reversed(steps):
        if isinstance(step, L.Extend):
            columns.append(step.column)
            sources.append(width + len(tail))
            tail += (extend_fill_value(step.value),)
        else:
            sources = [sources[columns.index(i)] for _, i in step.mapping]
            columns = [o for o, _ in step.mapping]
    key = (scan.table, base_preds, tuple(sources), tail)
    return _BranchSpec(key, pnode, _row_shaper(sources), tail)


def _branch_rows(rt, memo, spec):
    """The :class:`_BranchRows` of a resolved branch on a *memo* miss,
    built and put back: its access's rows that pass the residual
    predicate, shaped.  ``None`` if :func:`_drain_access` cannot run the
    access (more than one residual predicate)."""
    access = _access_of(rt, spec.access)
    if not _drains_in_bulk(access):
        return None
    rows, runs = access.rows, None
    if access.preds:
        (pos, test), = access.preds
        mask = [test(row[pos]) for row in rows]
        rows, runs = compress(rows, mask), _runs(mask)
    if spec.tail:
        rows = map(add, rows, repeat(spec.tail))
    return memo.put(spec.key, _BranchRows(
        access.charges, list(map(spec.shape, rows)), runs,
    ))


def _branch_weight(branch):
    """What *branch* counts against :data:`BRANCH_MEMO_ROWS`: its rows and
    runs, and four rows for the entry itself (its key, record and list
    take about 300 bytes, as four 3-column rows do), so a stream of
    empty branches is bounded too."""
    return 4 + len(branch.rows) + len(branch.runs or ())


@ROW_OPS.operator(
    "pull-union", match_type(L.Union),
    "concatenate branch streams one at a time (seen-set for distinct)",
)
def pull_union(rt, pnode):
    node = pnode.logical
    out_columns = node.output_columns()
    costs = rt.costs
    union = array("d", (costs.union_tuple,))

    def generate():
        log = rt.clock.cpu_log_array()
        seen = set() if node.distinct else None
        for child_pnode in pnode.children:
            stream = rt.build_child(child_pnode)
            for row in stream:
                log += union
                if seen is None:
                    yield row
                elif row not in seen:
                    seen.add(row)
                    yield row

    def drain(suffix):
        # Resolved branches replay from the memo (a miss builds the
        # branch and puts it back, see _branch_rows): their rows are
        # concatenated, and their charges go through one ``read_spans``
        # list — each branch's descent and heap entries, then ``LOG``
        # entries with its rows' charges — so I/O and CPU interleave as
        # branch-by-branch access drains would.  Any other branch drains
        # its own stream at its place in the order.  The node keeps the
        # specs and keys, not the rows, so the memo's budget bounds what
        # every plan holds.
        resolved = pnode.resolved
        if resolved is None:
            specs = tuple(_resolve_branch(rt, c) for c in pnode.children)
            resolved = pnode.resolved = (
                specs, [spec.key for spec in specs if spec is not None],
            )
        specs, keys = resolved
        memo = rt.resolved_lru("branches", BRANCH_MEMO_ROWS, _branch_weight)
        found = iter(memo.get_many(keys))
        per_row = (costs.union_tuple,) + suffix
        scan_log = array("d", (costs.scan_tuple, *per_row))
        patterns = _kept_patterns(costs, per_row)
        rows, charges = [], []
        for child_pnode, spec in zip(pnode.children, specs):
            branch = spec and (next(found) or _branch_rows(rt, memo, spec))
            if branch is None:
                if charges:
                    rt.pool.read_spans(charges, rt)
                    charges = []
                rows += rt.build_child(child_pnode).drain(per_row)
                continue
            charges += branch.charges
            if branch.runs is None:
                charges.append((LOG, scan_log * len(branch.rows)))
            else:
                for kept, length in branch.runs:
                    charges.append((LOG, patterns[kept] * length))
            rows += branch.rows
        if charges:
            rt.pool.read_spans(charges, rt)
        return rows

    return Stream(out_columns, generate(), None if node.distinct else drain)


@ROW_OPS.operator(
    "extend", match_type(L.Extend),
    "append a constant to every tuple",
)
def extend(rt, pnode):
    stream = rt.build_child(pnode.children[0])
    node = pnode.logical
    tail = (extend_fill_value(node.value),)
    return Stream(
        stream.columns + [node.column], map(add, stream, repeat(tail)),
        lambda suffix: list(map(add, stream.drain(suffix), repeat(tail))),
    )


@ROW_OPS.operator(
    "tuple-sort", match_type(L.Sort),
    "materialize and stable-sort tuples, last key first",
)
def tuple_sort(rt, pnode):
    stream = rt.build_child(pnode.children[0])
    node = pnode.logical
    positions = [(stream.position(c), d == "desc") for c, d in node.keys]
    costs, clock = rt.costs, rt.clock

    def sorted_rows():
        rows = stream.drain()
        clock.charge_cpu(sort_cost(costs, len(rows)))
        # Stable sorts applied last-key-first realize mixed asc/desc.
        for pos, descending in reversed(positions):
            rows.sort(key=itemgetter(pos), reverse=descending)
        return rows

    return _materialised(rt, stream.columns, sorted_rows)


@ROW_OPS.operator(
    "limit", match_type(L.Limit),
    "stop pulling after n tuples",
)
def limit(rt, pnode):
    stream = rt.build_child(pnode.children[0])
    return Stream(stream.columns, islice(stream, pnode.logical.n))


@ROW_OPS.operator(
    "tuple-distinct", match_type(L.Distinct),
    "seen-set deduplication, pipelined",
)
def tuple_distinct(rt, pnode):
    stream = rt.build_child(pnode.children[0])
    group = array("d", (rt.costs.group_tuple,))

    def generate():
        log = rt.clock.cpu_log_array()
        seen = set()
        for row in stream:
            log += group
            if row not in seen:
                seen.add(row)
                yield row

    return Stream(stream.columns, generate())
