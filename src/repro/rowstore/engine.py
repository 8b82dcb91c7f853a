"""The row-store engine facade."""

from repro.engine import MACHINE_A, ROW_STORE_COSTS
from repro.errors import StorageError
from repro.exec.host import PlanHost
from repro.rowstore.table import RowTable


class RowStoreEngine(PlanHost):
    """DBX-like engine: clustered heaps, B+tree indexes, iterator executor.

    Usage::

        engine = RowStoreEngine()
        engine.create_table(
            "triples", {"subj": ..., "prop": ..., "obj": ...},
            sort_by=["prop", "subj", "obj"],          # clustering key
            indexes=[{"name": "idx_pos", "columns": ["prop", "obj", "subj"]}],
        )
        relation, timing = engine.run(plan)
    """

    kind = "row-store"

    #: Sequential heap scans stream in 512 KB requests.
    DEFAULT_MAX_RUN_BYTES = 512 * 1024

    #: Default page size: small, to keep per-table page floors proportionate
    #: in the 1:N scale model (see ColumnStoreEngine.DEFAULT_PAGE_SIZE).
    DEFAULT_PAGE_SIZE = 2048

    def __init__(self, machine=MACHINE_A, costs=ROW_STORE_COSTS,
                 page_size=DEFAULT_PAGE_SIZE, buffer_bytes=None,
                 max_run_bytes=DEFAULT_MAX_RUN_BYTES, btree_order=64):
        super().__init__(
            machine, costs, page_size, buffer_bytes, max_run_bytes,
        )
        self.btree_order = btree_order

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------

    def create_table(self, name, columns, sort_by=None, indexes=None,
                     presorted=False):
        """Create a table clustered on *sort_by* with secondary *indexes*.

        *indexes* is a list of ``{"name": ..., "columns": [...]}`` dicts
        (or None/empty for none).  *presorted* asserts the columns already
        arrive in clustering order (e.g. restored from the artifact cache),
        skipping the load sort.
        """
        if name in self._tables:
            raise StorageError(f"table already exists: {name!r}")
        table = RowTable(
            name,
            columns,
            self.disk,
            clustering=sort_by,
            indexes=indexes or (),
            btree_order=self.btree_order,
            presorted=presorted,
        )
        for index in table.all_indexes():
            self._wire_index_accounting(index)
        self._tables[name] = table
        self._catalog_changed()
        return table

    def _wire_index_accounting(self, index):
        """Charge I/O + CPU for every B+tree node the executor touches."""
        pool, segment = self.pool, index.segment
        charge, node_cost = self.clock.cpu_log(), self.costs.btree_node

        def on_access(page):
            pool.read_pages(segment, [page])
            charge(node_cost)
            tracer = pool.tracer
            if tracer.enabled:
                tracer.current_add(btree_node_visits=1)

        index.tree.on_access = on_access

    def drop_table(self, name):
        """Drop a table, its heap, and every index segment."""
        table = self.table(name)
        self.disk.drop_segment(f"{name}.heap")
        for index in table.all_indexes():
            self.disk.drop_segment(f"{name}.{index.name}")
        del self._tables[name]
        self._catalog_changed()
