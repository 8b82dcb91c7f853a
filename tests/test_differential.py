"""Differential testing: random logical plans on both SQL engines.

Hypothesis generates random-but-valid logical plans over a shared random
table; the column store and the row store must produce identical result
bags.  This exercises operator combinations no hand-written query covers
(nested unions over selections, group-bys over joins over extends, ...).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.colstore import ColumnStoreEngine
from repro.observe import Tracer
from repro.plan import (
    ColumnComparison,
    Comparison,
    Distinct,
    Extend,
    GroupBy,
    Having,
    Join,
    Project,
    Scan,
    Select,
    Union,
)
from repro.rowstore import RowStoreEngine

N_ROWS = 400
VALUE_RANGE = 8  # small domain -> plenty of join matches and duplicates
#: The most rows a drawn join is expected to produce: an unselected
#: two-way join's.
MAX_JOIN_ROWS = N_ROWS * N_ROWS // VALUE_RANGE


def make_data(seed):
    rng = np.random.default_rng(seed)
    return {
        "subj": rng.integers(0, VALUE_RANGE, N_ROWS),
        "prop": rng.integers(0, VALUE_RANGE, N_ROWS),
        "obj": rng.integers(0, VALUE_RANGE, N_ROWS),
    }


@pytest.fixture(scope="module")
def engines():
    data = make_data(0)
    col = ColumnStoreEngine()
    col.create_table("t", data, sort_by=["prop", "subj", "obj"])
    row = RowStoreEngine()
    row.create_table(
        "t",
        data,
        sort_by=["prop", "subj", "obj"],
        indexes=[
            {"name": "idx_spo", "columns": ["subj", "prop", "obj"]},
            {"name": "idx_osp", "columns": ["obj", "subj", "prop"]},
        ],
    )
    return col, row


# ---------------------------------------------------------------------------
# plan strategies
# ---------------------------------------------------------------------------

_COMPONENTS = ("subj", "prop", "obj")
_counter = st.shared(st.just(None))  # placeholder; aliases via draw indices


@st.composite
def base_relation(draw, alias_pool):
    """Scan with optional selection; returns (plan, set_of_columns, the
    columns an ``=`` constant binds)."""
    alias = f"A{draw(st.integers(0, 10**6))}_{len(alias_pool)}"
    while alias in alias_pool:
        alias += "x"
    alias_pool.add(alias)
    scan = Scan("t", list(_COMPONENTS), alias=alias)
    plan = scan
    if draw(st.booleans()):
        predicates = []
        for _ in range(draw(st.integers(1, 2))):
            if draw(st.integers(0, 3)) == 0:
                left = f"{alias}.{draw(st.sampled_from(_COMPONENTS))}"
                right = f"{alias}.{draw(st.sampled_from(_COMPONENTS))}"
                op = draw(st.sampled_from(["=", "!="]))
                predicates.append(ColumnComparison(left, op, right))
            else:
                column = f"{alias}.{draw(st.sampled_from(_COMPONENTS))}"
                op = draw(st.sampled_from(["=", "!=", "<", ">="]))
                value = draw(st.integers(0, VALUE_RANGE))
                predicates.append(Comparison(column, op, value))
        plan = Select(scan, predicates)
    bound = {
        p.column for p in getattr(plan, "predicates", ())
        if isinstance(p, Comparison) and p.op == "="
    }
    return plan, set(plan.output_columns()), bound


@st.composite
def joined_relation(draw):
    """Up to three base relations joined left-deep, each join expected
    to produce at most MAX_JOIN_ROWS rows over the uniform table: a
    column bound to a constant and a join key pair each keep one value
    of VALUE_RANGE (a pair of bound keys keeps every row), and a join
    that would exceed the bound keys more column pairs."""
    alias_pool = set()
    plan, columns, bound = draw(base_relation(alias_pool))
    rows = N_ROWS / VALUE_RANGE ** len(bound)
    for _ in range(draw(st.integers(0, 2))):
        right, right_columns, right_bound = draw(base_relation(alias_pool))
        left_col = draw(st.sampled_from(sorted(columns)))
        right_col = draw(st.sampled_from(sorted(right_columns)))
        on = [(left_col, right_col)]
        rows *= N_ROWS / VALUE_RANGE ** len(right_bound)
        if left_col not in bound or right_col not in right_bound:
            rows /= VALUE_RANGE
        # Each further pair keys an unbound column of the new input, so
        # keeps one value more; two always suffice.
        extra = 0
        while rows / VALUE_RANGE ** extra > MAX_JOIN_ROWS:
            extra += 1
        if extra:
            free = right_columns - right_bound - {right_col}
            on += zip(
                draw(st.lists(
                    st.sampled_from(sorted(columns - {left_col})),
                    min_size=extra, max_size=extra, unique=True,
                )),
                draw(st.permutations(sorted(free)))[:extra],
            )
            rows /= VALUE_RANGE ** extra
        bound |= right_bound
        bound |= {c for pair in on if bound & set(pair) for c in pair}
        plan = Join(plan, right, on=on)
        columns |= right_columns
    return plan, sorted(columns)


@st.composite
def plans(draw):
    plan, columns = draw(joined_relation())

    shape = draw(st.sampled_from(["project", "group", "union", "distinct",
                                  "extend"]))
    if shape == "project":
        chosen = draw(
            st.lists(st.sampled_from(columns), min_size=1, max_size=3,
                     unique=True)
        )
        return Project(plan, [(f"c{i}", c) for i, c in enumerate(chosen)])
    if shape == "group":
        keys = draw(
            st.lists(st.sampled_from(columns), min_size=0, max_size=2,
                     unique=True)
        )
        grouped = GroupBy(plan, keys=keys, count_column="n")
        if draw(st.booleans()):
            threshold = draw(st.integers(0, 5))
            return Having(grouped, Comparison("n", ">", threshold))
        return grouped
    if shape == "union":
        chosen = draw(
            st.lists(st.sampled_from(columns), min_size=1, max_size=2,
                     unique=True)
        )
        mapping = [(f"c{i}", c) for i, c in enumerate(chosen)]
        one = Project(plan, mapping)
        other_plan, other_columns = draw(joined_relation())
        other_chosen = draw(
            st.lists(st.sampled_from(other_columns), min_size=len(chosen),
                     max_size=len(chosen), unique=True)
        )
        two = Project(
            other_plan, [(f"d{i}", c) for i, c in enumerate(other_chosen)]
        )
        return Union([one, two], distinct=draw(st.booleans()))
    if shape == "distinct":
        chosen = draw(
            st.lists(st.sampled_from(columns), min_size=1, max_size=2,
                     unique=True)
        )
        return Distinct(
            Project(plan, [(f"c{i}", c) for i, c in enumerate(chosen)])
        )
    # extend
    extended = Extend(plan, "tag", draw(st.integers(0, 5)))
    chosen = draw(
        st.lists(st.sampled_from(columns), min_size=1, max_size=2,
                 unique=True)
    )
    mapping = [("tag", "tag")] + [
        (f"c{i}", c) for i, c in enumerate(chosen)
    ]
    return Project(extended, mapping)


@settings(deadline=None, max_examples=60)
@given(plan=plans())
def test_engines_agree_on_random_plans(engines, plan):
    """Both engines return the same bag; the row engine's untraced run
    (materialising consumers drain their inputs) and its traced run
    (every stream pulled row by row) charge the same ``QueryTiming``."""
    col, row = engines
    expected = col.execute(plan).sorted_tuples(order=plan.output_columns())
    relation, untraced = row.run(plan, mode="cold")
    got = relation.sorted_tuples(order=plan.output_columns())
    assert got == expected
    row.install_tracer(Tracer(clock=row.clock))
    try:
        relation, traced = row.run(plan, mode="cold")
    finally:
        row.install_tracer(None)
    assert relation.sorted_tuples(order=plan.output_columns()) == got
    assert traced == untraced


@settings(deadline=None, max_examples=20)
@given(plan=plans(), seed=st.integers(0, 3))
def test_engines_agree_on_different_data(plan, seed):
    """Same property over a few different random tables."""
    data = make_data(seed)
    col = ColumnStoreEngine()
    col.create_table("t", data, sort_by=["subj", "prop", "obj"])
    row = RowStoreEngine()
    row.create_table("t", data, sort_by=["obj", "prop", "subj"])
    expected = col.execute(plan).sorted_tuples(order=plan.output_columns())
    got = row.execute(plan).sorted_tuples(order=plan.output_columns())
    assert got == expected
