"""The column-store engine facade."""

from repro.colstore.table import ColumnTable
from repro.engine import COLUMN_STORE_COSTS, MACHINE_A
from repro.errors import StorageError
from repro.exec.host import PlanHost
from repro.exec.morsel import (
    MAX_WORKERS,
    ParallelContext,
    morsel_rows_from_env,
    workers_from_env,
)
from repro.storage.compress import CompressionConfig


class ColumnStoreEngine(PlanHost):
    """MonetDB-like engine: column tables, sort orders, vectorized operators.

    Usage::

        engine = ColumnStoreEngine()
        engine.create_table("triples", {"subj": ..., "prop": ..., "obj": ...},
                            sort_by=["prop", "subj", "obj"])
        relation, timing = engine.run(plan)
    """

    kind = "column-store"

    #: Column scans issue large sequential requests (1 MB) — the engine can
    #: exploit the full disk bandwidth, unlike the C-Store replica.
    DEFAULT_MAX_RUN_BYTES = 1024 * 1024

    #: Default page size.  Smaller than a production 8 KB page on purpose:
    #: the benchmarks run a 1:N scale model of the 50M-triple dataset, and
    #: per-table page-size floors (222 near-empty property tables) would
    #: otherwise be magnified N-fold relative to everything else.
    DEFAULT_PAGE_SIZE = 2048

    def __init__(self, machine=MACHINE_A, costs=COLUMN_STORE_COSTS,
                 page_size=DEFAULT_PAGE_SIZE, buffer_bytes=None,
                 max_run_bytes=DEFAULT_MAX_RUN_BYTES, compression=None,
                 workers=None):
        super().__init__(
            machine, costs, page_size, buffer_bytes, max_run_bytes,
        )
        self.compression = CompressionConfig.coerce(compression)
        if workers is None:
            workers = workers_from_env(1)
        self.install_parallelism(workers)

    # ------------------------------------------------------------------
    # intra-query parallelism
    # ------------------------------------------------------------------

    def install_parallelism(self, workers):
        """Configure the engine's degree of parallelism.

        ``workers <= 1`` removes the parallel context: every scan and
        union runs its one range on the query thread.  Higher values
        make the kernel split its ranges into morsels and run them at up
        to ``workers`` lanes (the query thread plus ``workers - 1``
        helpers on the process-wide executor).  Lowering never looks at
        this setting — the same physical plan runs either way — so cached
        lowered plans stay valid across the change.
        """
        workers = max(1, min(int(workers), MAX_WORKERS))
        if workers <= 1:
            self._parallel = None
        else:
            self._parallel = ParallelContext(workers, morsel_rows_from_env())
        return self._parallel

    def parallelism(self):
        """The installed :class:`ParallelContext`, or ``None`` (serial)."""
        return self._parallel

    @property
    def workers(self):
        """The configured degree of parallelism (1 when serial)."""
        return 1 if self._parallel is None else self._parallel.dop

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------

    def create_table(self, name, columns, sort_by=None, indexes=None,
                     presorted=False):
        """Create a sorted column table.

        *indexes* is accepted for interface parity with the row store but
        must be empty: "MonetDB/SQL does not include user defined indices"
        (paper, Section 4.1) — callers express physical design as sort order.

        *presorted* asserts the columns already arrive in *sort_by* order
        (e.g. a prepared store payload), skipping the load sort.
        """
        if indexes:
            raise StorageError(
                "the column store supports sort orders, not user-defined "
                "indices (paper, Section 4.1)"
            )
        if name in self._tables:
            raise StorageError(f"table already exists: {name!r}")
        table = ColumnTable(
            name, columns, self.disk, sort_order=sort_by, presorted=presorted,
            compress=self.compression,
        )
        self._tables[name] = table
        self._catalog_changed()
        return table

    def drop_table(self, name):
        """Drop a table and free its segments (incremental maintenance
        rebuilds tables by drop + create)."""
        table = self.table(name)
        for column in table.column_names():
            self.disk.drop_segment(f"{name}.{column}")
        del self._tables[name]
        self._catalog_changed()

    @property
    def compression_mode(self):
        """``None`` (raw columns) or ``"physical"`` (compressed)."""
        return None if self.compression is None else "physical"

    def compression_report(self):
        """Footprint report across all tables (``None`` when disabled).

        ``compression_ratio`` is logical/compressed bytes over every
        column (raw-kept columns count at full size, so the ratio reflects
        the whole store, not just the compressible part).
        """
        if self.compression is None:
            return None
        logical = 0
        compressed = 0
        codecs = {}
        for table in self._tables.values():
            logical += table.logical_bytes()
            compressed += table.compressed_bytes()
            for info in table.compression_summary().values():
                codecs[info["codec"]] = codecs.get(info["codec"], 0) + 1
        ratio = (logical / compressed) if compressed else 1.0
        return {
            "mode": self.compression_mode,
            "logical_bytes": logical,
            "compressed_bytes": compressed,
            "compression_ratio": ratio,
            "columns_by_codec": dict(sorted(codecs.items())),
        }
