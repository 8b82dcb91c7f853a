"""The two benchmark plans that are still built by hand: q8 off the
triple store.

Every other plan is the appendix SQL, placed on the scheme and planned
(:mod:`repro.queries.builder`).  q8's property is unbound, so each scheme
reads it through a union — over every property table (vertical), or over
every clustered wide-table column plus the leftover table (the
property-table extension: the "proliferation of union clauses" the VLDB
2007 paper levelled at property tables, which this paper's Section 4.2
shows applies to vertical partitioning as well).  Both plans are
Section 4.2's two phase plan: collect the objects of ``<conferences>``
into a relation ``t``, then join ``t`` back against the union after
filtering out ``<conferences>`` subjects.  Its predicate on
``<conferences>`` is pushed into every branch of both unions; the
placement rule of :mod:`repro.sql.generator` keeps an unbound property's
constants above its union, which is faster for the ad-hoc describe.

The vertical unions are template unions, like every other union over
the property tables: one branch, bound to each table under alias
``t<i>`` / ``B<i>``.  The property-table unions stay lists of branches,
because their branches read different columns of the wide table.
"""

from repro.plan import Comparison, Join, Project, Scan, Select, Union
from repro.queries.definitions import CONSTANTS
from repro.storage.property_table import NULL_OID


def vertical_q8(catalog):
    tables = [
        catalog.property_table(prop) for prop in catalog.properties_for("all")
    ]
    return _two_phase_q8(
        catalog, [(tables[0], ["subj", "obj"], "0", "obj", ())], tables,
    )


def property_table_q8(catalog):
    wide = catalog.property_table_name
    sources = [
        (wide, ["subj", column], f"w{i}", column, ((column, "!=", NULL_OID),))
        for i, (_, column) in enumerate(
            sorted(catalog.clustered_property_columns.items())
        )
    ]
    sources.append(
        (catalog.triples_table, ["subj", "prop", "obj"], "l", "obj", ())
    )
    return _two_phase_q8(catalog, sources)


def _two_phase_q8(catalog, sources, tables=None):
    """*sources*: per union branch, ``(table, scan columns, alias suffix,
    object column, guards)`` — guards are ``(column, op, value)``.  With
    *tables*, the one source is a template bound to each table in turn,
    under alias suffix ``0``, ``1``, …"""
    conferences = catalog.encode(CONSTANTS["conferences"])

    def union(alias, op):
        branches = []
        for table, columns, suffix, obj, guards in sources:
            branch = f"{alias}{suffix}"
            predicates = [
                Comparison(f"{branch}.{column}", guard_op, value)
                for column, guard_op, value in guards
            ]
            predicates.append(Comparison(f"{branch}.subj", op, conferences))
            node = Select(Scan(table, columns, alias=branch), predicates)
            branches.append(Project(node, [
                (f"{alias}.subj", f"{branch}.subj"),
                (f"{alias}.obj", f"{branch}.{obj}"),
            ]))
        if tables is None:
            return Union(branches, distinct=False)
        return Union(distinct=False, template=branches[0], bindings=[
            (table, f"{alias}{i}", None) for i, table in enumerate(tables)
        ])

    t = Project(union("t", "="), [("t.obj", "t.obj")])
    joined = Join(t, union("B", "!="), on=[("t.obj", "B.obj")])
    return Project(joined, [("subj", "B.subj")])
