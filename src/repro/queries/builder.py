"""Build logical plans for the benchmark queries against a store catalog.

Two builders share one public entry point:

* :class:`TripleStorePlans` — plans over the single ``triples`` table,
  following the appendix SQL of the paper verbatim (including the
  ``properties`` filter join for the non-star q2/q3/q4/q6).
* :class:`VerticalPlans` — the "Perl script" of the paper's appendix: the
  same queries expanded over one table per property, with UNION branches
  tagging rows with their property oid.  Full-scale variants iterate all
  properties; q8 always does (its property is unbound).

Every plan ends in a Project onto the query's canonical output column
names, so results are comparable across schemes and engines.
"""

from repro.errors import PlanError
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
from repro.queries.definitions import CONSTANTS, parse_query_name


def build_query(catalog, name, scope=None, lint=None):
    """Build the logical plan for benchmark query *name* over *catalog*.

    *scope* overrides the property scope ("interesting", "all", or an
    explicit property-name list) — used by the Figure 6 sweep, which varies
    the number of properties considered by q2/q3/q4/q6.

    Every built plan runs through the static plan linter
    (:mod:`repro.analysis`); *lint* overrides the session lint mode for
    this call (``"off"`` / ``"warn"`` / ``"strict"``).
    """
    base, full_scale = parse_query_name(name)
    if scope is None:
        scope = "all" if full_scale else "interesting"
    if catalog.is_triple_store():
        builder = TripleStorePlans(catalog)
    elif catalog.is_vertical():
        builder = VerticalPlans(catalog)
    elif catalog.scheme == "property_table":
        from repro.queries.ptable_plans import PropertyTablePlans

        builder = PropertyTablePlans(catalog)
    else:
        raise PlanError(f"unknown storage scheme {catalog.scheme!r}")
    plan = getattr(builder, base)(scope)

    from repro.analysis import plan_lint

    plan_lint.check_plan(plan, where=f"query:{name}", mode=lint)
    return plan


class _Plans:
    """Shared helpers for both builders."""

    def __init__(self, catalog):
        self.catalog = catalog

    def const(self, key):
        """Oid of a named query constant (None when absent from the data)."""
        return self.catalog.encode(CONSTANTS[key])

    def eq(self, column, key):
        return Comparison(column, "=", self.const(key))

    def ne(self, column, key):
        return Comparison(column, "!=", self.const(key))


class TripleStorePlans(_Plans):
    """Appendix SQL, clause by clause, over the triples table."""

    def scan(self, alias):
        return Scan(
            self.catalog.triples_table, ["subj", "prop", "obj"], alias=alias
        )

    def properties_filter(self, child, prop_column, scope):
        """Join against the 28-property table (the Longwell restriction)."""
        if scope == "all":
            return child
        p = Scan(self.catalog.properties_table, ["prop"], alias="P")
        return Join(child, p, on=[(prop_column, "P.prop")])

    def q1(self, scope):
        a = Select(self.scan("A"), [self.eq("A.prop", "type")])
        g = GroupBy(a, keys=["A.obj"], count_column="count")
        return Project(g, [("obj", "A.obj"), ("count", "count")])

    def _type_text_join_b(self):
        """``A.subj = B.subj AND A.prop = <type> AND A.obj = <Text>``."""
        a = Select(
            self.scan("A"),
            [self.eq("A.prop", "type"), self.eq("A.obj", "Text")],
        )
        return Join(a, self.scan("B"), on=[("A.subj", "B.subj")])

    def q2(self, scope):
        joined = self.properties_filter(
            self._type_text_join_b(), "B.prop", scope
        )
        g = GroupBy(joined, keys=["B.prop"], count_column="count")
        return Project(g, [("prop", "B.prop"), ("count", "count")])

    def q3(self, scope):
        joined = self.properties_filter(
            self._type_text_join_b(), "B.prop", scope
        )
        g = GroupBy(joined, keys=["B.prop", "B.obj"], count_column="count")
        h = Having(g, Comparison("count", ">", 1))
        return Project(
            h, [("prop", "B.prop"), ("obj", "B.obj"), ("count", "count")]
        )

    def q4(self, scope):
        ab = self._type_text_join_b()
        c = Select(
            self.scan("C"),
            [self.eq("C.prop", "language"), self.eq("C.obj", "french")],
        )
        abc = Join(ab, c, on=[("B.subj", "C.subj")])
        joined = self.properties_filter(abc, "B.prop", scope)
        g = GroupBy(joined, keys=["B.prop", "B.obj"], count_column="count")
        h = Having(g, Comparison("count", ">", 1))
        return Project(
            h, [("prop", "B.prop"), ("obj", "B.obj"), ("count", "count")]
        )

    def q5(self, scope):
        a = Select(
            self.scan("A"),
            [self.eq("A.prop", "origin"), self.eq("A.obj", "DLC")],
        )
        b = Select(self.scan("B"), [self.eq("B.prop", "records")])
        ab = Join(a, b, on=[("A.subj", "B.subj")])
        c = Select(
            self.scan("C"),
            [self.eq("C.prop", "type"), self.ne("C.obj", "Text")],
        )
        abc = Join(ab, c, on=[("B.obj", "C.subj")])
        return Project(abc, [("subj", "B.subj"), ("obj", "C.obj")])

    def _q6_union(self):
        b = Select(
            self.scan("B"),
            [self.eq("B.prop", "type"), self.eq("B.obj", "Text")],
        )
        branch1 = Project(b, [("u.subj", "B.subj")])
        c = Select(self.scan("C"), [self.eq("C.prop", "records")])
        d = Select(
            self.scan("D"),
            [self.eq("D.prop", "type"), self.eq("D.obj", "Text")],
        )
        cd = Join(c, d, on=[("C.obj", "D.subj")])
        branch2 = Project(cd, [("u.subj", "C.subj")])
        return Union([branch1, branch2], distinct=True)

    def q6(self, scope):
        joined = Join(
            self._q6_union(), self.scan("A"), on=[("u.subj", "A.subj")]
        )
        joined = self.properties_filter(joined, "A.prop", scope)
        g = GroupBy(joined, keys=["A.prop"], count_column="count")
        return Project(g, [("prop", "A.prop"), ("count", "count")])

    def q7(self, scope):
        a = Select(
            self.scan("A"),
            [self.eq("A.prop", "Point"), self.eq("A.obj", "end")],
        )
        b = Select(self.scan("B"), [self.eq("B.prop", "Encoding")])
        ab = Join(a, b, on=[("A.subj", "B.subj")])
        c = Select(self.scan("C"), [self.eq("C.prop", "type")])
        abc = Join(ab, c, on=[("A.subj", "C.subj")])
        return Project(
            abc,
            [
                ("subj", "A.subj"),
                ("obj_encoding", "B.obj"),
                ("obj_type", "C.obj"),
            ],
        )

    def q8(self, scope):
        a = Select(self.scan("A"), [self.eq("A.subj", "conferences")])
        b = Select(self.scan("B"), [self.ne("B.subj", "conferences")])
        ab = Join(a, b, on=[("A.obj", "B.obj")])
        return Project(ab, [("subj", "B.subj")])


class VerticalPlans(_Plans):
    """The queries expanded over per-property tables.

    A bound property becomes a scan of its table; an unbound property
    becomes a UNION over the in-scope property tables, each branch tagged
    with its property oid via Extend — the "sizable SQL clause" of the
    paper's Section 4.2.
    """

    def vp_scan(self, prop_key_or_name, alias):
        name = CONSTANTS.get(prop_key_or_name, prop_key_or_name)
        table = self.catalog.property_table(name)
        return Scan(table, ["subj", "obj"], alias=alias)

    def triples_union(self, alias, scope, need_prop=True, need_obj=True,
                      predicates=None):
        """A triples-shaped relation reassembled from the property tables.

        Emits columns ``{alias}.subj`` (always), ``{alias}.prop`` and
        ``{alias}.obj`` on request; *predicates* is an optional callable
        producing per-branch predicates from the branch alias.
        """
        branches = []
        for i, prop in enumerate(self.catalog.properties_for(scope)):
            branch_alias = f"{alias}{i}"
            node = self.vp_scan(prop, branch_alias)
            if predicates is not None:
                node = Select(node, predicates(branch_alias))
            mapping = [(f"{alias}.subj", f"{branch_alias}.subj")]
            if need_prop:
                node = Extend(
                    node, f"{branch_alias}.prop", self.catalog.encode(prop)
                )
                mapping.append((f"{alias}.prop", f"{branch_alias}.prop"))
            if need_obj:
                mapping.append((f"{alias}.obj", f"{branch_alias}.obj"))
            branches.append(Project(node, mapping))
        return Union(branches, distinct=False)

    def q1(self, scope):
        a = self.vp_scan("type", "A")
        g = GroupBy(a, keys=["A.obj"], count_column="count")
        return Project(g, [("obj", "A.obj"), ("count", "count")])

    def _text_subjects(self, alias="A"):
        return Select(
            self.vp_scan("type", alias), [self.eq(f"{alias}.obj", "Text")]
        )

    def q2(self, scope):
        b = self.triples_union("B", scope, need_prop=True, need_obj=False)
        joined = Join(self._text_subjects(), b, on=[("A.subj", "B.subj")])
        g = GroupBy(joined, keys=["B.prop"], count_column="count")
        return Project(g, [("prop", "B.prop"), ("count", "count")])

    def q3(self, scope):
        b = self.triples_union("B", scope, need_prop=True, need_obj=True)
        joined = Join(self._text_subjects(), b, on=[("A.subj", "B.subj")])
        g = GroupBy(joined, keys=["B.prop", "B.obj"], count_column="count")
        h = Having(g, Comparison("count", ">", 1))
        return Project(
            h, [("prop", "B.prop"), ("obj", "B.obj"), ("count", "count")]
        )

    def q4(self, scope):
        b = self.triples_union("B", scope, need_prop=True, need_obj=True)
        ab = Join(self._text_subjects(), b, on=[("A.subj", "B.subj")])
        c = Select(
            self.vp_scan("language", "C"), [self.eq("C.obj", "french")]
        )
        abc = Join(ab, c, on=[("B.subj", "C.subj")])
        g = GroupBy(abc, keys=["B.prop", "B.obj"], count_column="count")
        h = Having(g, Comparison("count", ">", 1))
        return Project(
            h, [("prop", "B.prop"), ("obj", "B.obj"), ("count", "count")]
        )

    def q5(self, scope):
        a = Select(self.vp_scan("origin", "A"), [self.eq("A.obj", "DLC")])
        b = self.vp_scan("records", "B")
        ab = Join(a, b, on=[("A.subj", "B.subj")])
        c = Select(self.vp_scan("type", "C"), [self.ne("C.obj", "Text")])
        abc = Join(ab, c, on=[("B.obj", "C.subj")])
        return Project(abc, [("subj", "B.subj"), ("obj", "C.obj")])

    def _q6_union(self):
        branch1 = Project(self._text_subjects("B"), [("u.subj", "B.subj")])
        c = self.vp_scan("records", "C")
        d = self._text_subjects("D")
        cd = Join(c, d, on=[("C.obj", "D.subj")])
        branch2 = Project(cd, [("u.subj", "C.subj")])
        return Union([branch1, branch2], distinct=True)

    def q6(self, scope):
        a = self.triples_union("A", scope, need_prop=True, need_obj=False)
        joined = Join(self._q6_union(), a, on=[("u.subj", "A.subj")])
        g = GroupBy(joined, keys=["A.prop"], count_column="count")
        return Project(g, [("prop", "A.prop"), ("count", "count")])

    def q7(self, scope):
        a = Select(self.vp_scan("Point", "A"), [self.eq("A.obj", "end")])
        b = self.vp_scan("Encoding", "B")
        ab = Join(a, b, on=[("A.subj", "B.subj")])
        c = self.vp_scan("type", "C")
        abc = Join(ab, c, on=[("A.subj", "C.subj")])
        return Project(
            abc,
            [
                ("subj", "A.subj"),
                ("obj_encoding", "B.obj"),
                ("obj_type", "C.obj"),
            ],
        )

    def q8(self, scope):
        """Two-phase plan of Section 4.2: collect <conferences> objects into
        a temporary relation t, then join t back against every property
        table after filtering out <conferences> subjects."""
        t = self.triples_union(
            "t", "all", need_prop=False, need_obj=True,
            predicates=lambda alias: [self.eq(f"{alias}.subj", "conferences")],
        )
        t = Project(t, [("t.obj", "t.obj")])
        b = self.triples_union(
            "B", "all", need_prop=False, need_obj=True,
            predicates=lambda alias: [
                self.ne(f"{alias}.subj", "conferences")
            ],
        )
        joined = Join(t, b, on=[("t.obj", "B.obj")])
        return Project(joined, [("subj", "B.subj")])
