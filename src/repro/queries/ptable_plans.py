"""The benchmark plans that are still built by hand.

Every other plan is the appendix SQL, planned (:mod:`repro.queries.builder`).

* :func:`vertical_q8` — q8 on the vertically-partitioned scheme, as the
  two-phase plan of Section 4.2.  Its predicate on ``<conferences>`` is
  pushed into every branch of both unions; a planner rule that did this
  would push the SQL describe's ``subj = <entity>`` into every branch
  too, which is slower.
* :class:`PropertyTablePlans` — EXTENSION.  Every triple pattern against
  a property-table store reads *two* places: the wide table's column
  (single-valued instances) and the leftover triples table (multi-valued
  spills and non-clustered properties).  A bound property is therefore a
  2-branch UNION; an unbound property unions every clustered column with
  the whole leftover table — the "proliferation of union clauses and
  joins ... complex union clauses" that the VLDB 2007 paper levelled at
  property tables and that this paper's Section 4.2 shows applies to
  vertical partitioning as well.  The scheme has no SQL generator.
"""

from repro.plan import (
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
from repro.queries.definitions import CONSTANTS
from repro.storage.property_table import NULL_OID


def vertical_q8(catalog):
    """Collect the objects of ``<conferences>`` into a relation ``t``,
    then join ``t`` back against every property table after filtering
    out ``<conferences>`` subjects."""
    conferences = catalog.encode(CONSTANTS["conferences"])

    def union(alias, op):
        branches = []
        for i, prop in enumerate(catalog.properties_for("all")):
            branch = f"{alias}{i}"
            node = Select(
                Scan(catalog.property_table(prop), ["subj", "obj"],
                     alias=branch),
                [Comparison(f"{branch}.subj", op, conferences)],
            )
            branches.append(Project(node, [
                (f"{alias}.subj", f"{branch}.subj"),
                (f"{alias}.obj", f"{branch}.obj"),
            ]))
        return Union(branches, distinct=False)

    t = Project(union("t", "="), [("t.obj", "t.obj")])
    joined = Join(t, union("B", "!="), on=[("t.obj", "B.obj")])
    return Project(joined, [("subj", "B.subj")])


class PropertyTablePlans:
    """q1-q8 over the wide table + leftover triples layout."""

    def __init__(self, catalog):
        self.catalog = catalog

    def const(self, key):
        """Oid of a named query constant (None when absent from the data)."""
        return self.catalog.encode(CONSTANTS[key])

    # ------------------------------------------------------------------
    # pattern relations
    # ------------------------------------------------------------------

    def bound(self, prop_key, alias, obj_eq=None, obj_ne=None,
              need_obj=True):
        """Relation of the triples carrying one property.

        Emits ``{alias}.subj`` (and ``{alias}.obj`` when *need_obj*);
        *obj_eq* / *obj_ne* are constant keys applied to the object.
        """
        prop_name = CONSTANTS.get(prop_key, prop_key)
        branches = []
        column = self.catalog.clustered_property_columns.get(prop_name)
        if column is not None:
            wide_alias = f"{alias}w"
            node = Scan(
                self.catalog.property_table_name,
                ["subj", column],
                alias=wide_alias,
            )
            predicates = [
                Comparison(f"{wide_alias}.{column}", "!=", NULL_OID)
            ]
            predicates += self._constants(
                f"{wide_alias}.{column}", obj_eq, obj_ne
            )
            mapping = [(f"{alias}.subj", f"{wide_alias}.subj")]
            if need_obj:
                mapping.append((f"{alias}.obj", f"{wide_alias}.{column}"))
            branches.append(Project(Select(node, predicates), mapping))

        leftover_alias = f"{alias}l"
        node = Scan(
            self.catalog.triples_table,
            ["subj", "prop", "obj"],
            alias=leftover_alias,
        )
        predicates = [
            Comparison(
                f"{leftover_alias}.prop", "=", self.catalog.encode(prop_name)
            )
        ]
        predicates += self._constants(
            f"{leftover_alias}.obj", obj_eq, obj_ne
        )
        mapping = [(f"{alias}.subj", f"{leftover_alias}.subj")]
        if need_obj:
            mapping.append((f"{alias}.obj", f"{leftover_alias}.obj"))
        branches.append(Project(Select(node, predicates), mapping))

        if len(branches) == 1:
            return branches[0]
        return Union(branches, distinct=False)

    def _constants(self, column, eq, ne):
        """``column = eq`` and ``column != ne`` for the keys given."""
        return [
            Comparison(column, op, self.const(key))
            for op, key in (("=", eq), ("!=", ne)) if key is not None
        ]

    def unbound(self, alias, need_prop=True, need_obj=True,
                subject_eq=None, subject_ne=None):
        """Triples-shaped relation over *every* property.

        One branch per clustered wide-table column (tagged with its
        property oid) plus the whole leftover table.
        """
        mapping_spec = ["subj"]
        if need_prop:
            mapping_spec.append("prop")
        if need_obj:
            mapping_spec.append("obj")

        branches = []
        for i, (prop_name, column) in enumerate(
            sorted(self.catalog.clustered_property_columns.items())
        ):
            wide_alias = f"{alias}w{i}"
            node = Scan(
                self.catalog.property_table_name,
                ["subj", column],
                alias=wide_alias,
            )
            predicates = [
                Comparison(f"{wide_alias}.{column}", "!=", NULL_OID)
            ]
            predicates += self._constants(
                f"{wide_alias}.subj", subject_eq, subject_ne
            )
            node = Select(node, predicates)
            source = {
                "subj": f"{wide_alias}.subj",
                "obj": f"{wide_alias}.{column}",
            }
            if need_prop:
                node = Extend(
                    node,
                    f"{wide_alias}.prop",
                    self.catalog.encode(prop_name),
                )
                source["prop"] = f"{wide_alias}.prop"
            branches.append(
                Project(
                    node,
                    [(f"{alias}.{c}", source[c]) for c in mapping_spec],
                )
            )

        leftover_alias = f"{alias}l"
        node = Scan(
            self.catalog.triples_table,
            ["subj", "prop", "obj"],
            alias=leftover_alias,
        )
        predicates = self._constants(
            f"{leftover_alias}.subj", subject_eq, subject_ne
        )
        if predicates:
            node = Select(node, predicates)
        branches.append(
            Project(
                node,
                [
                    (f"{alias}.{c}", f"{leftover_alias}.{c}")
                    for c in mapping_spec
                ],
            )
        )
        return Union(branches, distinct=False)

    def properties_filter(self, child, prop_column, scope):
        if scope == "all":
            return child
        p = Scan(self.catalog.properties_table, ["prop"], alias="P")
        return Join(child, p, on=[(prop_column, "P.prop")])

    # ------------------------------------------------------------------
    # the queries
    # ------------------------------------------------------------------

    def q1(self, scope):
        a = self.bound("type", "A")
        g = GroupBy(a, keys=["A.obj"], count_column="count")
        return Project(g, [("obj", "A.obj"), ("count", "count")])

    def _text_join_b(self, need_obj):
        a = self.bound("type", "A", obj_eq="Text", need_obj=False)
        b = self.unbound("B", need_prop=True, need_obj=need_obj)
        return Join(a, b, on=[("A.subj", "B.subj")])

    def q2(self, scope):
        joined = self.properties_filter(
            self._text_join_b(need_obj=False), "B.prop", scope
        )
        g = GroupBy(joined, keys=["B.prop"], count_column="count")
        return Project(g, [("prop", "B.prop"), ("count", "count")])

    def q3(self, scope):
        joined = self.properties_filter(
            self._text_join_b(need_obj=True), "B.prop", scope
        )
        g = GroupBy(joined, keys=["B.prop", "B.obj"], count_column="count")
        h = Having(g, Comparison("count", ">", 1))
        return Project(
            h, [("prop", "B.prop"), ("obj", "B.obj"), ("count", "count")]
        )

    def q4(self, scope):
        ab = self._text_join_b(need_obj=True)
        c = self.bound("language", "C", obj_eq="french", need_obj=False)
        abc = Join(ab, c, on=[("B.subj", "C.subj")])
        joined = self.properties_filter(abc, "B.prop", scope)
        g = GroupBy(joined, keys=["B.prop", "B.obj"], count_column="count")
        h = Having(g, Comparison("count", ">", 1))
        return Project(
            h, [("prop", "B.prop"), ("obj", "B.obj"), ("count", "count")]
        )

    def q5(self, scope):
        a = self.bound("origin", "A", obj_eq="DLC", need_obj=False)
        b = self.bound("records", "B")
        ab = Join(a, b, on=[("A.subj", "B.subj")])
        c = self.bound("type", "C", obj_ne="Text")
        abc = Join(ab, c, on=[("B.obj", "C.subj")])
        return Project(abc, [("subj", "B.subj"), ("obj", "C.obj")])

    def _q6_union(self):
        b = self.bound("type", "B", obj_eq="Text", need_obj=False)
        branch1 = Project(b, [("u.subj", "B.subj")])
        c = self.bound("records", "C")
        d = self.bound("type", "D", obj_eq="Text", need_obj=False)
        cd = Join(c, d, on=[("C.obj", "D.subj")])
        branch2 = Project(cd, [("u.subj", "C.subj")])
        return Union([branch1, branch2], distinct=True)

    def q6(self, scope):
        a = self.unbound("A", need_prop=True, need_obj=False)
        joined = Join(self._q6_union(), a, on=[("u.subj", "A.subj")])
        joined = self.properties_filter(joined, "A.prop", scope)
        g = GroupBy(joined, keys=["A.prop"], count_column="count")
        return Project(g, [("prop", "A.prop"), ("count", "count")])

    def q7(self, scope):
        a = self.bound("Point", "A", obj_eq="end", need_obj=False)
        b = self.bound("Encoding", "B")
        ab = Join(a, b, on=[("A.subj", "B.subj")])
        c = self.bound("type", "C")
        abc = Join(ab, c, on=[("A.subj", "C.subj")])
        return Project(abc, [
            ("subj", "A.subj"), ("obj_encoding", "B.obj"), ("obj_type", "C.obj"),
        ])

    def q8(self, scope):
        t = self.unbound(
            "t", need_prop=False, need_obj=True, subject_eq="conferences"
        )
        t = Project(t, [("t.obj", "t.obj")])
        b = self.unbound(
            "B", need_prop=False, need_obj=True, subject_ne="conferences"
        )
        joined = Join(t, b, on=[("t.obj", "B.obj")])
        return Project(joined, [("subj", "B.subj")])
