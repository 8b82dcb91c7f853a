"""Serial/parallel parity: the morsel runtime must be invisible.

The determinism contract of the morsel-driven runtime (PR 10) is that
intra-query parallelism changes wall-clock only: decoded rows AND the
simulated cost documents are byte-identical at any worker count, for
every engine x scheme cell, every benchmark query, cold and hot.  These
tests sweep that contract with the morsel size forced small enough that
the worker pool genuinely engages (the default 4096-row morsels would
let the test dataset fall back to the serial path).
"""

import numpy as np
import pytest

import repro.api as api
from repro.colstore import ColumnStoreEngine
from repro.data import generate_barton
from repro.exec.parity import compare_parity, parity_sweep
from repro.observe import counters
from repro.plan import (
    ColumnComparison,
    Comparison,
    Extend,
    GroupBy,
    Project,
    Scan,
    Select,
    Union,
)
from repro.storage import build_vertical_store

#: Small enough that every base-table scan splits into several morsels
#: on the 4000-triple parity dataset.
SMALL_MORSELS = "256"

SCALE = dict(n_triples=5_000, n_properties=40, seed=11)


def _engine_options(compression, **options):
    if compression is not None:
        options["compression"] = compression
    return options


@pytest.fixture(scope="module")
def baselines():
    """The serial sweeps by compression mode: every engine x scheme cell,
    all benchmark queries, cold and hot protocols."""
    return {
        compression: parity_sweep(
            column_engine_options=_engine_options(compression)
        )
        for compression in (None, "physical")
    }


@pytest.fixture(scope="module")
def dataset():
    return generate_barton(**SCALE)


def _connect(dataset, workers):
    return api.connect(
        triples=dataset.triples,
        interesting_properties=dataset.interesting_properties,
        engine_options={"workers": workers},
    )


def _mixed_union(catalog):
    """canonical, canonical with a selection, non-canonical (a
    column-to-column comparison under the Project), canonical with an
    Extend — so the canonical runs on either side of the generic branch
    must be charged around it, in branch order."""
    tables = [
        catalog.property_tables[name] for name in catalog.all_properties[:4]
    ]
    scans = [
        Scan(table, ["subj", "obj"], alias=f"T{i}")
        for i, table in enumerate(tables)
    ]
    return Union(
        [
            Project(scans[0], [("s", "T0.subj"), ("o", "T0.obj")]),
            Project(
                Select(scans[1], [Comparison("T1.obj", ">", 0)]),
                [("s", "T1.subj"), ("o", "T1.obj")],
            ),
            Project(
                Select(scans[2], [ColumnComparison("T2.obj", ">=", "T2.obj")]),
                [("s", "T2.subj"), ("o", "T2.obj")],
            ),
            Project(
                Extend(scans[3], "T3.tag", 7),
                [("s", "T3.subj"), ("o", "T3.tag")],
            ),
        ],
        distinct=False,
    )


def _first_table_scan(catalog, alias="A"):
    return Scan(
        catalog.property_tables[catalog.all_properties[0]], ["subj", "obj"],
        alias=alias,
    )


#: Plan shapes the named queries do not reach.
PLAN_SHAPES = {
    "mixed-union": _mixed_union,
    # A sorted-prefix search that finds nothing: lo == hi, no range.
    "empty-prefix": lambda catalog: Select(
        _first_table_scan(catalog), [Comparison("A.subj", "=", -5)]
    ),
    "count-star": lambda catalog: GroupBy(_first_table_scan(catalog), keys=[]),
}


class TestSweepParity:
    @pytest.mark.parametrize("workers, compression", [
        pytest.param(
            workers, compression,
            id=str(workers) if compression is None
            else f"{compression}-{workers}",
        )
        for compression in (None, "physical")
        for workers in (1, 2, 4)
    ])
    def test_byte_identical_at_any_worker_count(
        self, baselines, workers, compression, monkeypatch
    ):
        monkeypatch.setenv("REPRO_MORSEL_ROWS", SMALL_MORSELS)
        counters.reset("parallel")
        sweep = parity_sweep(
            column_engine_options=_engine_options(compression, workers=workers)
        )
        assert compare_parity(baselines[compression], sweep) == []
        if workers > 1:
            # The kernel must have split its ranges AND the pool must
            # have run real batches — a parity pass with zero batches
            # would prove nothing.
            assert counters.snapshot("parallel")["batches"] > 0

    def test_morsel_size_does_not_change_costs(self, baselines, monkeypatch):
        # Morsel boundaries partition the coordinator's replay inputs,
        # never its charge sequence: any morsel size reproduces the
        # serial document.
        monkeypatch.setenv("REPRO_MORSEL_ROWS", "97")
        sweep = parity_sweep(column_engine_options={"workers": 3})
        assert compare_parity(baselines[None], sweep) == []

    @pytest.mark.parametrize("compression", [None, "physical"])
    @pytest.mark.parametrize("shape", sorted(PLAN_SHAPES))
    def test_plan_shapes_beyond_the_named_queries(
        self, dataset, shape, compression, monkeypatch
    ):
        monkeypatch.setenv("REPRO_MORSEL_ROWS", "64")
        runs = {}
        for workers in (1, 4):
            engine = ColumnStoreEngine(
                **_engine_options(compression, workers=workers)
            )
            catalog = build_vertical_store(
                engine, dataset.triples, dataset.interesting_properties
            )
            plan = PLAN_SHAPES[shape](catalog)
            counters.reset("parallel")
            relation, timing = engine.run(plan)
            runs[workers] = (
                {name: relation.column(name).tolist()
                 for name in relation.columns},
                timing.to_dict(),
                counters.snapshot("parallel")["batches"],
            )
            if shape == "mixed-union":
                # Output blocks keep branch order around the generic one.
                parts = [
                    engine.table(catalog.property_tables[name])
                    for name in catalog.all_properties[:4]
                ]
                assert relation.column("s").tolist() == np.concatenate(
                    [table.array("subj") for table in parts]
                ).tolist()
            if shape == "count-star":
                # The same scan asked for no column at all (the
                # ``__rowid__`` path): one row id per table row.
                table = engine.table(plan.child.table)
                rowids = engine.executor().run_child(
                    engine.lower(plan.child), set()
                ).relation
                assert rowids.column("__rowid__").tolist() == list(
                    range(table.n_rows)
                )
        assert runs[4][:2] == runs[1][:2]
        assert runs[1][2] == 0
        assert (runs[4][2] > 0) == (shape != "empty-prefix")


class TestPerQueryWorkers:
    def test_workers_kwarg_is_cost_invisible(self, dataset, monkeypatch):
        monkeypatch.setenv("REPRO_MORSEL_ROWS", SMALL_MORSELS)
        serial = _connect(dataset, workers=1)
        parallel = _connect(dataset, workers=4)
        try:
            with serial.session() as s1, parallel.session() as s4:
                for query in ("q1", "q2", "q4", "q6"):
                    expected = s1.query(query, mode="cold")
                    for workers in (None, 1, 2, 16):
                        got = s4.query(query, mode="cold", workers=workers)
                        assert list(got) == list(expected)
                        assert got.cost.to_dict() == expected.cost.to_dict()
        finally:
            serial.close()
            parallel.close()

    def test_override_resets_after_query(self, dataset, monkeypatch):
        monkeypatch.setenv("REPRO_MORSEL_ROWS", SMALL_MORSELS)
        connection = _connect(dataset, workers=4)
        try:
            runtime = connection.store.engine.executor()
            with connection.session() as session:
                session.query("q2", workers=1)
                assert runtime.dop_override is None
                with pytest.raises(Exception):
                    session.query("definitely not a query", workers=1)
                assert runtime.dop_override is None
        finally:
            connection.close()

    def test_row_store_ignores_workers(self, dataset):
        connection = api.connect(
            triples=dataset.triples,
            interesting_properties=dataset.interesting_properties,
            engine="row",
        )
        try:
            with connection.session() as session:
                result = session.query("q1", workers=4)
                assert len(list(result)) >= 0
        finally:
            connection.close()


class TestStealingStress:
    def test_skewed_morsels_stay_deterministic(self, dataset, monkeypatch):
        # A tiny morsel size over the vertical scheme's very unevenly
        # sized property tables produces skewed batches (some branches
        # contribute hundreds of rows, some a handful), which is exactly
        # the shape that provokes work stealing.  Rows and costs must
        # not wobble across repeated runs.
        monkeypatch.setenv("REPRO_MORSEL_ROWS", "64")
        connection = _connect(dataset, workers=4)
        try:
            with connection.session() as session:
                reference = {
                    query: (
                        list(session.query(query, mode="cold")),
                        session.query(query, mode="cold").cost.to_dict(),
                    )
                    for query in ("q2", "q3", "q6")
                }
                for _ in range(3):
                    for query, (rows, cost) in reference.items():
                        again = session.query(query, mode="cold")
                        assert list(again) == rows
                        assert again.cost.to_dict() == cost
        finally:
            connection.close()


class TestMorselSpans:
    def test_profile_shows_per_morsel_children(self, dataset, monkeypatch):
        import json

        monkeypatch.setenv("REPRO_MORSEL_ROWS", SMALL_MORSELS)
        connection = _connect(dataset, workers=4)
        try:
            with connection.session() as session:
                profile = session.profile("q2", mode="cold")
        finally:
            connection.close()
        document = json.loads(profile.to_json())

        morsels = []

        def walk(span):
            if span.get("operator", "").startswith("morsel["):
                morsels.append(span)
            for child in span.get("children", []):
                walk(child)

        walk(document["plan"])
        assert morsels, "parallel operators must emit per-morsel spans"
        # Attribution telescopes: each morsel span carries a share of the
        # parent's simulated charge, never an invented cost — so the
        # profile's span-sum invariant (asserted by the profiler's own
        # tests) keeps holding with the children present.
        assert all(span["calls"] == 1 for span in morsels)


class TestServerAdmission:
    def test_max_dop_clamps_requests(self, dataset, monkeypatch):
        from repro.server.scheduler import SchedulerConfig, SessionScheduler

        monkeypatch.setenv("REPRO_MORSEL_ROWS", SMALL_MORSELS)
        serial = _connect(dataset, workers=1)
        parallel = _connect(dataset, workers=4)
        scheduler = SessionScheduler(
            parallel, SchedulerConfig(workers=2, max_dop=2)
        )
        try:
            with serial.session() as session:
                expected = session.query("q2", mode="hot")
            # A request asking for 16 workers is admitted at 2 — and the
            # result is still byte-identical to serial.
            result = scheduler.execute("q2", mode="hot", workers=16)
            assert list(result) == list(expected)
            assert result.cost.to_dict() == expected.cost.to_dict()
            assert scheduler.stats()["live"]["max_dop"] == 2
        finally:
            scheduler.shutdown()
            serial.close()
            parallel.close()

    def test_max_dop_validated(self):
        from repro.errors import ReproError
        from repro.server.scheduler import SchedulerConfig

        with pytest.raises(ReproError):
            SchedulerConfig(max_dop=0)
