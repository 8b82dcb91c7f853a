"""Tests for the logical plan algebra and predicates."""

import numpy as np
import pytest

from repro.errors import PlanError
from repro.plan import (
    Comparison,
    Distinct,
    GroupBy,
    Having,
    Join,
    Project,
    Scan,
    Select,
    Union,
    count_operators,
    walk,
)
from repro.relation import Relation


def scan(alias=None):
    return Scan("triples", ["subj", "prop", "obj"], alias=alias)


class TestComparison:
    def test_equality_evaluate(self):
        p = Comparison("x", "=", 5)
        assert p.evaluate(5) and not p.evaluate(6)

    def test_inequality_evaluate(self):
        p = Comparison("x", "!=", 5)
        assert p.evaluate(6) and not p.evaluate(5)

    def test_ordering_operators(self):
        assert Comparison("x", ">", 1).evaluate(2)
        assert Comparison("x", "<=", 1).evaluate(1)
        assert not Comparison("x", "<", 1).evaluate(1)
        assert Comparison("x", ">=", 2).evaluate(2)

    def test_unknown_operator_rejected(self):
        with pytest.raises(PlanError):
            Comparison("x", "~", 1)

    def test_none_value_semantics(self):
        """A constant missing from the dictionary matches nothing for '='
        and everything for '!='."""
        assert not Comparison("x", "=", None).evaluate(0)
        assert Comparison("x", "!=", None).evaluate(0)

    def test_mask(self):
        arr = np.array([1, 2, 1, 3])
        assert Comparison("x", "=", 1).mask(arr).tolist() == [
            True, False, True, False,
        ]
        assert Comparison("x", "=", None).mask(arr).sum() == 0
        assert Comparison("x", "!=", None).mask(arr).sum() == 4

    def test_equality_helpers(self):
        assert Comparison("x", "=", 1).is_equality()
        assert not Comparison("x", "!=", 1).is_equality()
        assert Comparison("x", "=", 1) == Comparison("x", "=", 1)


class TestPlanConstruction:
    def test_scan_alias_qualifies_columns(self):
        assert scan("A").output_columns() == ["A.subj", "A.prop", "A.obj"]
        assert scan().output_columns() == ["subj", "prop", "obj"]

    def test_select_validates_columns(self):
        Select(scan("A"), [Comparison("A.prop", "=", 1)])
        with pytest.raises(PlanError):
            Select(scan("A"), [Comparison("B.prop", "=", 1)])

    def test_select_requires_predicates(self):
        with pytest.raises(PlanError):
            Select(scan(), [])
        with pytest.raises(PlanError):
            Select(scan(), ["not a predicate"])

    def test_project_rename(self):
        p = Project(scan("A"), [("s", "A.subj")])
        assert p.output_columns() == ["s"]

    def test_project_duplicate_outputs_rejected(self):
        with pytest.raises(PlanError):
            Project(scan("A"), [("s", "A.subj"), ("s", "A.obj")])

    def test_join_output_concatenates(self):
        j = Join(scan("A"), scan("B"), on=[("A.subj", "B.subj")])
        assert j.output_columns() == [
            "A.subj", "A.prop", "A.obj", "B.subj", "B.prop", "B.obj",
        ]

    def test_join_rejects_overlapping_names(self):
        with pytest.raises(PlanError):
            Join(scan(), scan(), on=[("subj", "subj")])

    def test_join_validates_keys(self):
        with pytest.raises(PlanError):
            Join(scan("A"), scan("B"), on=[("A.nope", "B.subj")])

    def test_group_by_output(self):
        g = GroupBy(scan("A"), keys=["A.prop"], count_column="n")
        assert g.output_columns() == ["A.prop", "n"]

    def test_group_by_global_count(self):
        g = GroupBy(scan("A"), keys=[])
        assert g.output_columns() == ["count"]

    def test_having_requires_group_by(self):
        g = GroupBy(scan("A"), keys=["A.prop"])
        Having(g, Comparison("count", ">", 1))
        with pytest.raises(PlanError):
            Having(scan("A"), Comparison("count", ">", 1))

    def test_union_arity_check(self):
        one = Project(scan("A"), [("s", "A.subj")])
        two = Project(scan("B"), [("s", "B.subj"), ("o", "B.obj")])
        Union([one, one])
        with pytest.raises(PlanError):
            Union([one, two])

    def test_union_requires_inputs(self):
        with pytest.raises(PlanError):
            Union([])

    def test_walk_and_count(self):
        j = Join(scan("A"), scan("B"), on=[("A.subj", "B.subj")])
        g = GroupBy(j, keys=["B.prop"])
        assert count_operators(g) == 4
        kinds = [type(n).__name__ for n in walk(g)]
        assert kinds == ["GroupBy", "Join", "Scan", "Scan"]

    def test_distinct_passthrough_columns(self):
        d = Distinct(scan("A"))
        assert d.output_columns() == scan("A").output_columns()


class TestRelation:
    def test_basic_construction(self):
        r = Relation({"a": [1, 2], "b": [3, 4]})
        assert r.n_rows == 2
        assert r.to_tuples() == [(1, 3), (2, 4)]

    def test_ragged_rejected(self):
        from repro.errors import EngineError

        with pytest.raises(EngineError):
            Relation({"a": [1, 2], "b": [3]})

    def test_empty_relation(self):
        r = Relation.empty(["a", "b"])
        assert r.n_rows == 0
        assert r.to_tuples() == []

    def test_from_rows_round_trip(self):
        r = Relation.from_rows(["a", "b"], [(1, 2), (3, 4)])
        assert r.to_tuples() == [(1, 2), (3, 4)]

    def test_missing_column(self):
        from repro.errors import EngineError

        with pytest.raises(EngineError):
            Relation({"a": [1]}).column("b")

    def test_decoded_tuples(self):
        from repro.dictionary import Dictionary

        d = Dictionary(["<x>", "<y>"])
        r = Relation({"val": [0, 1], "n": [10, 20]}, oid_columns={"val"})
        assert r.decoded_tuples(d) == [("<x>", 10), ("<y>", 20)]

    @pytest.mark.parametrize("bad_oid", [-1, 2])
    def test_decoded_tuples_rejects_unknown_oids(self, bad_oid):
        """MISSING_VALUE (-1) must not wrap to the dictionary's last
        string, for the live and the frozen dictionary alike."""
        from repro.dictionary import Dictionary
        from repro.errors import DictionaryError

        d = Dictionary(["<x>", "<y>"])
        r = Relation({"val": [0, bad_oid]}, oid_columns={"val"})
        for dictionary in (d, d.freeze()):
            with pytest.raises(DictionaryError, match="oid out of range"):
                r.decoded_tuples(dictionary)

    def test_sorted_tuples_with_order(self):
        r = Relation({"a": [2, 1], "b": [5, 6]})
        assert r.sorted_tuples(order=["b", "a"]) == [(5, 2), (6, 1)]

    def test_needs_columns(self):
        from repro.errors import EngineError

        with pytest.raises(EngineError):
            Relation({})
