"""Golden-diagnostic tests for the plan linter: one deliberately
misshaped plan per rule, plus the frontend mode machinery."""

import pytest

from repro.analysis import (
    ERROR,
    INFO,
    WARNING,
    lint_plan,
    max_severity,
    worst,
)
from repro.analysis.plan_lint import (
    PLAN_RULES,
    assert_no_regression,
    check_plan,
    lint_mode,
    set_lint_mode,
)
from repro.errors import PlanError
from repro.plan import (
    ColumnComparison,
    Comparison,
    Extend,
    GroupBy,
    Having,
    Join,
    Project,
    Scan,
    Select,
    Union,
)


def scan(alias):
    return Scan("triples", ["subj", "prop", "obj"], alias=alias)


def rules_fired(plan, severity=None):
    diagnostics = lint_plan(plan)
    if severity is not None:
        diagnostics = [d for d in diagnostics if d.severity == severity]
    return {d.rule for d in diagnostics}


@pytest.fixture(autouse=True)
def _reset_mode():
    previous = lint_mode()
    yield
    set_lint_mode(previous)


# ---------------------------------------------------------------------------
# one golden misshaped plan per rule
# ---------------------------------------------------------------------------

class TestCartesianProduct:
    def test_join_on_equality_pinned_keys_both_sides(self):
        plan = Join(
            Select(scan("A"), [Comparison("A.subj", "=", 5)]),
            Select(scan("B"), [Comparison("B.subj", "=", 7)]),
            on=[("A.subj", "B.subj")],
        )
        findings = [
            d for d in lint_plan(plan) if d.rule == "cartesian-product"
        ]
        assert len(findings) == 1
        assert findings[0].severity == WARNING
        assert "cartesian" in findings[0].message
        assert findings[0].path == "$"

    def test_join_on_extend_constants(self):
        plan = Join(
            Extend(scan("A"), "A.tag", 3),
            Extend(scan("B"), "B.tag", 3),
            on=[("A.tag", "B.tag")],
        )
        assert "cartesian-product" in rules_fired(plan)

    def test_varying_key_is_not_cartesian(self):
        plan = Join(
            Select(scan("A"), [Comparison("A.prop", "=", 5)]),
            scan("B"),
            on=[("A.subj", "B.subj")],
        )
        assert "cartesian-product" not in rules_fired(plan)


class TestUnsatisfiableFilter:
    def test_contradictory_range(self):
        plan = Select(
            scan("A"),
            [Comparison("A.obj", ">", 5), Comparison("A.obj", "<", 3)],
        )
        findings = [
            d for d in lint_plan(plan) if d.rule == "unsatisfiable-filter"
        ]
        assert len(findings) == 1
        assert findings[0].severity == WARNING
        assert "A.obj" in findings[0].message

    def test_contradictory_equalities_across_select_chain(self):
        # The chain Select(Select(...)) is folded as one conjunction.
        plan = Select(
            Select(scan("A"), [Comparison("A.obj", "=", 6)]),
            [Comparison("A.obj", "=", 5)],
        )
        assert "unsatisfiable-filter" in rules_fired(plan)

    def test_strict_bounds_tighten_by_one(self):
        # Integer oids: x > 4 AND x < 6 admits exactly x = 5.
        satisfiable = Select(
            scan("A"),
            [Comparison("A.obj", ">", 4), Comparison("A.obj", "<", 6)],
        )
        assert "unsatisfiable-filter" not in rules_fired(satisfiable)
        # ...but excluding the single admitted value closes the interval.
        empty = Select(
            scan("A"),
            [
                Comparison("A.obj", ">", 4),
                Comparison("A.obj", "<", 6),
                Comparison("A.obj", "!=", 5),
            ],
        )
        assert "unsatisfiable-filter" in rules_fired(empty)

    def test_self_comparison(self):
        plan = Select(
            scan("A"), [ColumnComparison("A.obj", "<", "A.obj")]
        )
        assert "unsatisfiable-filter" in rules_fired(plan)

    def test_negative_having_bound(self):
        plan = Having(
            GroupBy(scan("A"), keys=["A.prop"]),
            Comparison("count", "<", -1),
        )
        assert "unsatisfiable-filter" in rules_fired(plan)

    def test_pinned_value_outside_range(self):
        plan = Select(
            scan("A"),
            [Comparison("A.obj", "=", 2), Comparison("A.obj", ">=", 10)],
        )
        assert "unsatisfiable-filter" in rules_fired(plan)


class TestDeadColumn:
    def test_unconsumed_scan_column_is_info(self):
        plan = Project(scan("A"), [("s", "A.subj")])
        findings = [d for d in lint_plan(plan) if d.rule == "dead-column"]
        assert {d.severity for d in findings} == {INFO}
        dead = {d.message.split()[2] for d in findings}
        assert dead == {"A.prop", "A.obj"}

    def test_predicate_consumption_counts(self):
        plan = Project(
            Select(scan("A"), [Comparison("A.prop", "=", 1)]),
            [("s", "A.subj")],
        )
        findings = [d for d in lint_plan(plan) if d.rule == "dead-column"]
        assert all("A.obj" in d.message for d in findings)

    def test_unconsumed_extend(self):
        plan = Project(
            Extend(scan("A"), "A.lit", 9),
            [("s", "A.subj")],
        )
        assert any(
            d.rule == "dead-column" and "A.lit" in d.message
            for d in lint_plan(plan)
        )


class TestDomainMismatch:
    def test_property_vs_subject_join(self):
        plan = Join(scan("A"), scan("B"), on=[("A.prop", "B.subj")])
        findings = [
            d for d in lint_plan(plan) if d.rule == "domain-mismatch"
        ]
        assert len(findings) == 1
        assert findings[0].severity == WARNING
        assert "property-coded" in findings[0].message

    def test_subject_object_join_is_fine(self):
        # q5 walks an object into a subject; q8 joins object to object.
        plan = Join(scan("A"), scan("B"), on=[("A.obj", "B.subj")])
        assert "domain-mismatch" not in rules_fired(plan)

    def test_count_vs_entity_join(self):
        counted = GroupBy(scan("A"), keys=["A.subj"], count_column="count")
        plan = Join(counted, scan("B"), on=[("count", "B.obj")])
        assert "domain-mismatch" in rules_fired(plan)

    def test_union_mixing_property_and_entity(self):
        plan = Union(
            [
                Project(scan("A"), [("x", "A.prop")]),
                Project(scan("B"), [("x", "B.obj")]),
            ],
            distinct=False,
        )
        assert "domain-mismatch" in rules_fired(plan)


class TestDuplicateColumns:
    def test_duplicate_scan_columns_are_error(self):
        plan = Scan("triples", ["subj", "subj"], alias="A")
        findings = [
            d for d in lint_plan(plan) if d.rule == "duplicate-columns"
        ]
        assert findings and findings[0].severity == ERROR

    def test_union_branch_shadowing_is_info(self):
        plan = Union(
            [
                Project(scan("A"), [("x", "A.subj")]),
                Project(scan("B"), [("y", "B.subj")]),
            ],
            distinct=False,
        )
        findings = [
            d for d in lint_plan(plan) if d.rule == "duplicate-columns"
        ]
        assert findings and findings[0].severity == INFO
        assert "shadowed" in findings[0].message


class TestPushdownSelect:
    def test_one_sided_selection_above_join(self):
        plan = Select(
            Join(scan("A"), scan("B"), on=[("A.subj", "B.subj")]),
            [Comparison("A.obj", "=", 3)],
        )
        findings = [
            d for d in lint_plan(plan) if d.rule == "pushdown-select"
        ]
        assert len(findings) == 1
        assert findings[0].severity == WARNING
        assert "left input" in findings[0].message

    def test_cross_filters_stay_put(self):
        # A column-column filter over both inputs belongs above the join.
        plan = Select(
            Join(scan("A"), scan("B"), on=[("A.subj", "B.subj")]),
            [ColumnComparison("A.obj", "=", "B.obj")],
        )
        assert "pushdown-select" not in rules_fired(plan)


class TestMissingConstant:
    def test_none_value_is_info(self):
        plan = Select(scan("A"), [Comparison("A.obj", "=", None)])
        findings = [
            d for d in lint_plan(plan) if d.rule == "missing-constant"
        ]
        assert findings and findings[0].severity == INFO
        assert "never satisfied" in findings[0].message

    def test_not_equal_none_is_redundant(self):
        plan = Select(scan("A"), [Comparison("A.obj", "!=", None)])
        findings = [
            d for d in lint_plan(plan) if d.rule == "missing-constant"
        ]
        assert findings and "always true" in findings[0].message


# ---------------------------------------------------------------------------
# machinery
# ---------------------------------------------------------------------------

class TestMachinery:
    def test_every_rule_is_catalogued(self):
        expected = {
            "cartesian-product", "unsatisfiable-filter", "dead-column",
            "domain-mismatch", "duplicate-columns", "pushdown-select",
            "missing-constant",
        }
        assert set(PLAN_RULES) == expected

    def test_diagnostics_sorted_most_severe_first(self):
        plan = Select(
            Join(
                Scan("triples", ["subj", "subj"], alias="A"),
                scan("B"),
                on=[("A.subj", "B.subj")],
            ),
            [Comparison("A.subj", "=", None)],
        )
        diagnostics = lint_plan(plan)
        ranks = [("info", "warning", "error").index(d.severity)
                 for d in diagnostics]
        assert ranks == sorted(ranks, reverse=True)

    def test_rule_subset(self):
        plan = Project(
            Select(scan("A"), [Comparison("A.obj", "=", None)]),
            [("s", "A.subj")],
        )
        only = lint_plan(plan, rules=["dead-column"])
        assert {d.rule for d in only} == {"dead-column"}

    def test_worst_and_max_severity(self):
        plan = Select(
            scan("A"),
            [Comparison("A.obj", ">", 5), Comparison("A.obj", "<", 3)],
        )
        diagnostics = lint_plan(plan)
        assert max_severity(diagnostics) == WARNING
        assert worst(diagnostics, at_least=WARNING)
        assert not worst(diagnostics, at_least=ERROR)

    def test_check_plan_strict_raises(self):
        plan = Join(scan("A"), scan("B"), on=[("A.prop", "B.subj")])
        with pytest.raises(PlanError, match="fails lint"):
            check_plan(plan, where="test", mode="strict")

    def test_check_plan_off_is_empty(self):
        plan = Join(scan("A"), scan("B"), on=[("A.prop", "B.subj")])
        assert check_plan(plan, where="test", mode="off") == ()

    def test_check_plan_warn_returns_diagnostics(self):
        plan = Join(scan("A"), scan("B"), on=[("A.prop", "B.subj")])
        diagnostics = check_plan(plan, where="test", mode="warn")
        assert any(d.rule == "domain-mismatch" for d in diagnostics)

    def test_set_lint_mode_validates(self):
        # One typed error for every door a mode comes through: over HTTP
        # a bare ValueError was a worker traceback, not a 400.
        with pytest.raises(PlanError, match="unknown lint mode 'loud'"):
            set_lint_mode("loud")
        with pytest.raises(PlanError, match="unknown lint mode"):
            check_plan(scan("A"), where="test", mode=["strict"])
        set_lint_mode("strict")
        assert lint_mode() == "strict"

    def test_assert_no_regression(self):
        clean = Join(scan("A"), scan("B"), on=[("A.subj", "B.subj")])
        worse = Join(scan("A"), scan("B"), on=[("A.prop", "B.subj")])
        assert_no_regression(clean, clean)
        with pytest.raises(PlanError, match="regression"):
            assert_no_regression(clean, worse, where="test-rewrite")

    def test_diagnostic_render_and_dict(self):
        plan = Join(scan("A"), scan("B"), on=[("A.prop", "B.subj")])
        d = [x for x in lint_plan(plan) if x.rule == "domain-mismatch"][0]
        assert "domain-mismatch" in d.render()
        document = d.to_dict()
        assert document["severity"] == WARNING
        assert document["path"] == "$"
