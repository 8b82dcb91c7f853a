"""Catalog describing a deployed RDF storage scheme."""

from dataclasses import dataclass, field

from repro.errors import StorageError

#: Clustering orders for the triples table, as column lists.
CLUSTERINGS = {
    "SPO": ("subj", "prop", "obj"),
    "SOP": ("subj", "obj", "prop"),
    "PSO": ("prop", "subj", "obj"),
    "POS": ("prop", "obj", "subj"),
    "OSP": ("obj", "subj", "prop"),
    "OPS": ("obj", "prop", "subj"),
}


def clustering_columns(name):
    try:
        return CLUSTERINGS[name.upper()]
    except KeyError:
        raise StorageError(
            f"unknown clustering {name!r}; expected one of {sorted(CLUSTERINGS)}"
        ) from None


@dataclass
class StoreCatalog:
    """What a storage-scheme builder created inside an engine.

    * ``scheme`` — ``"triple"``, ``"vertical"`` or ``"property_table"``.
    * ``clustering`` — triples-table clustering order (triple scheme),
      ``"SO"`` (vertical scheme) or ``"subj+PSO"`` (property table: the
      wide table on subject, the leftover triples PSO).
    * ``dictionary`` — the frozen string dictionary all values are encoded
      with.
    * ``triples_table`` — the triples table (triple scheme) or the leftover
      triples table (property table).
    * ``properties_table`` — name of the table holding the "interesting"
      property oids used to filter q2/q3/q4/q6 (every scheme).
    * ``property_tables`` — property name -> table name (vertical scheme).
    * ``interesting_properties`` / ``all_properties`` — property name lists,
      most frequent first; only properties that have triples.
    * ``compression`` — the engine's compression mode (``None`` or
      ``"physical"``) at build time, so catalog consumers can tell a
      compressed store from a raw one.
    * ``property_table_name`` / ``clustered_property_columns`` — the wide
      table and its property name -> column map (property table only).
    """

    scheme: str
    clustering: str
    dictionary: object
    interesting_properties: list
    all_properties: list
    triples_table: str = None
    properties_table: str = None
    property_tables: dict = field(default_factory=dict)
    compression: str = None
    property_table_name: str = None
    clustered_property_columns: dict = field(default_factory=dict)
    #: Values other layers derive from this catalog and keep for the next
    #: query (the SQL generator's union-over-all-properties subquery), each
    #: stored with the inputs it was derived from.  A maintenance insert
    #: returns a new catalog (``dataclasses.replace``), whose memo is empty.
    derived: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def is_triple_store(self):
        return self.scheme == "triple"

    def is_vertical(self):
        return self.scheme == "vertical"

    def property_table(self, property_name):
        """The vertical table storing *property_name*'s triples."""
        try:
            return self.property_tables[property_name]
        except KeyError:
            raise StorageError(
                f"no vertical table for property {property_name!r}"
            ) from None

    def encode(self, string):
        """Oid of a query constant (None when absent from the data)."""
        return self.dictionary.lookup_or_none(string)

    def with_properties(self, properties_table, interesting_properties):
        """A copy pointing at a different "interesting properties" filter.

        Used by the Figure 6 sweep, which varies how many properties the
        aggregation queries consider.
        """
        import dataclasses

        return dataclasses.replace(
            self,
            properties_table=properties_table,
            interesting_properties=list(interesting_properties),
        )

    def properties_for(self, scope):
        """Resolve a property scope to a name list.

        ``"interesting"`` — the 28 Longwell properties; ``"all"`` — every
        property; a list — returned as-is.
        """
        if scope == "interesting":
            return list(self.interesting_properties)
        if scope == "all":
            return list(self.all_properties)
        return list(scope)
