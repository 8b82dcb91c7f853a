"""Tests for the incremental-maintenance extension."""

import dataclasses
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.colstore import ColumnStoreEngine
from repro.colstore.table import ColumnTable
from repro.data import generate_barton
from repro.dictionary import Dictionary
from repro.errors import DictionaryError, StorageError
from repro.model.graph import RDFGraph
from repro.model.triple import Triple
from repro.queries import ALL_QUERY_NAMES, build_query, reference_answer
from repro.rowstore import RowStoreEngine
from repro.storage import build_triple_store, build_vertical_store
from repro.storage.encoding import is_order_preserving, row_keys
from repro.storage.maintenance import MaintenanceReport, insert_triples


@pytest.fixture()
def dataset():
    return generate_barton(
        n_triples=4_000, n_properties=25, n_interesting=20, seed=9
    )


def _answers(engine, catalog, query_name):
    plan = build_query(catalog, query_name)
    relation = engine.execute(plan)
    return sorted(
        relation.decoded_tuples(catalog.dictionary, order=plan.output_columns())
    )


NEW_TRIPLES = [
    Triple("<entity/1>", "<language>", "<language/iso639-2b/fre>"),
    Triple("<new-subject>", "<type>", "<Text>"),
    Triple("<new-subject>", "<language>", "<language/iso639-2b/fre>"),
]

NEW_PROPERTY_TRIPLES = [
    Triple("<entity/2>", "<brand-new-prop>", "<whatever>"),
]


class TestTripleStoreMaintenance:
    @pytest.mark.parametrize("engine_cls", [ColumnStoreEngine, RowStoreEngine])
    def test_insert_then_query(self, dataset, engine_cls):
        engine = engine_cls()
        catalog = build_triple_store(
            engine, dataset.triples, dataset.interesting_properties
        )
        catalog, report = insert_triples(engine, catalog, NEW_TRIPLES)
        assert report.n_triples == 3
        assert report.tables_rebuilt == ["triples"]
        assert not report.schema_changed
        assert not report.plans_invalidated

        graph = RDFGraph(dataset.triples + NEW_TRIPLES)
        for q in ("q1", "q2", "q4"):
            assert _answers(engine, catalog, q) == reference_answer(
                graph, q, dataset.interesting_properties
            ), q

    def test_new_property_does_not_change_schema(self, dataset):
        engine = ColumnStoreEngine()
        catalog = build_triple_store(
            engine, dataset.triples, dataset.interesting_properties
        )
        n_tables = len(engine.table_names())
        catalog, report = insert_triples(
            engine, catalog, NEW_PROPERTY_TRIPLES
        )
        assert report.new_properties == ["<brand-new-prop>"]
        assert not report.schema_changed  # still one triples table
        assert len(engine.table_names()) == n_tables
        assert "<brand-new-prop>" in catalog.all_properties

    def test_clustering_preserved_after_rebuild(self, dataset):
        import numpy as np

        engine = ColumnStoreEngine()
        catalog = build_triple_store(
            engine, dataset.triples, dataset.interesting_properties,
            clustering="PSO",
        )
        catalog, _ = insert_triples(engine, catalog, NEW_TRIPLES)
        prop = engine.table("triples").array("prop")
        assert (np.diff(prop) >= 0).all()

    def test_row_store_indexes_survive(self, dataset):
        engine = RowStoreEngine()
        catalog = build_triple_store(
            engine, dataset.triples, dataset.interesting_properties,
            clustering="PSO",
        )
        before = sorted(
            i.name for i in engine.table("triples").secondary_indexes()
        )
        catalog, _ = insert_triples(engine, catalog, NEW_TRIPLES)
        after = sorted(
            i.name for i in engine.table("triples").secondary_indexes()
        )
        assert after == before


class TestVerticalMaintenance:
    @pytest.mark.parametrize("engine_cls", [ColumnStoreEngine, RowStoreEngine])
    def test_insert_rebuilds_only_affected_tables(self, dataset, engine_cls):
        engine = engine_cls()
        catalog = build_vertical_store(
            engine, dataset.triples, dataset.interesting_properties
        )
        catalog, report = insert_triples(engine, catalog, NEW_TRIPLES)
        # Only <type> and <language> tables were touched.
        assert len(report.tables_rebuilt) == 2
        assert not report.schema_changed

        graph = RDFGraph(dataset.triples + NEW_TRIPLES)
        for q in ("q1", "q2", "q4"):
            assert _answers(engine, catalog, q) == reference_answer(
                graph, q, dataset.interesting_properties
            ), q

    def test_new_property_changes_schema_and_invalidates_plans(self, dataset):
        """The paper's Section 4.2 observation, executable: a new property
        means CREATE TABLE and re-producing the generated queries."""
        engine = ColumnStoreEngine()
        catalog = build_vertical_store(
            engine, dataset.triples, dataset.interesting_properties
        )
        stale_plan = build_query(catalog, "q2*")
        n_tables_before = len(engine.table_names())

        catalog, report = insert_triples(
            engine, catalog, NEW_PROPERTY_TRIPLES
        )
        assert report.schema_changed
        assert report.plans_invalidated
        assert len(engine.table_names()) == n_tables_before + 1

        # The stale plan still runs but is silently incomplete; the
        # re-produced plan covers the new table.
        from repro.plan import count_operators

        fresh_plan = build_query(catalog, "q2*")
        assert count_operators(fresh_plan) > count_operators(stale_plan)

    def test_rebuild_cost_asymmetry(self, dataset):
        """Inserting a handful of triples rewrites far less in the vertical
        scheme (small property tables) than in the triple-store (whole
        table) — the flip side of the schema-change susceptibility."""
        col_t = ColumnStoreEngine()
        cat_t = build_triple_store(
            col_t, dataset.triples, dataset.interesting_properties
        )
        _, report_t = insert_triples(col_t, cat_t, NEW_TRIPLES)

        col_v = ColumnStoreEngine()
        cat_v = build_vertical_store(
            col_v, dataset.triples, dataset.interesting_properties
        )
        _, report_v = insert_triples(col_v, cat_v, NEW_TRIPLES)

        assert report_v.bytes_rewritten < report_t.bytes_rewritten

    def test_unsupported_scheme_rejected(self, dataset):
        engine = ColumnStoreEngine()
        from repro.storage import build_property_table_store

        catalog = build_property_table_store(
            engine, dataset.triples, dataset.interesting_properties
        )
        with pytest.raises(StorageError):
            insert_triples(engine, catalog, NEW_TRIPLES)


ENGINES = [ColumnStoreEngine, RowStoreEngine]
BUILDERS = [build_triple_store, build_vertical_store]


def _columns(table):
    """A table's columns as lists, read the engine's own way."""
    if isinstance(table, ColumnTable):
        return [table.array(c).tolist() for c in table.column_names()]
    return [list(column) for column in zip(*table.rows)] or [
        [] for _ in table.columns
    ]


def _snapshot(engine, catalog):
    """Everything an insert may change: tables, disk, catalog."""
    return {
        "tables": {
            name: _columns(engine.table(name)) for name in engine.table_names()
        },
        "order": engine.table_names(),
        "segments": [(s.name, s.base, s.nbytes) for s in engine.disk.segments()],
        "bytes": engine.database_bytes(),
        "all_properties": list(catalog.all_properties),
        "property_tables": dict(catalog.property_tables),
        "strings": list(catalog.dictionary),
        "needs_reorganization": catalog.dictionary.needs_reorganization,
    }


@pytest.fixture(scope="module")
def small_dataset():
    return generate_barton(
        n_triples=2_000, n_properties=20, n_interesting=10, seed=9
    )


class TestAtomicBatches:
    """A batch that fails to encode applies nothing."""

    @pytest.mark.parametrize("engine_cls", ENGINES)
    @pytest.mark.parametrize("build", BUILDERS)
    def test_failing_batch_leaves_store_untouched(self, small_dataset,
                                                  engine_cls, build):
        engine = engine_cls()
        catalog = build(
            engine, small_dataset.triples, small_dataset.interesting_properties
        )
        before = _snapshot(engine, catalog)
        bad = [
            Triple("<atomic/1>", "<type>", "<Text>"),
            Triple("<atomic/2>", 42, "<Text>"),
        ]
        with pytest.raises(DictionaryError):
            insert_triples(engine, catalog, bad)
        assert _snapshot(engine, catalog) == before
        # The store still takes a valid batch, and answers for it.
        catalog, report = insert_triples(engine, catalog, bad[:1])
        assert report.tables_rebuilt
        graph = RDFGraph(small_dataset.triples + bad[:1])
        assert _answers(engine, catalog, "q1") == reference_answer(
            graph, "q1", small_dataset.interesting_properties
        )


class TestSetSemantics:
    """Tables hold sets: stored and repeated triples are stored once."""

    @pytest.mark.parametrize("engine_cls", ENGINES)
    @pytest.mark.parametrize("build", BUILDERS)
    def test_reinserting_a_stored_triple_changes_nothing(
            self, small_dataset, engine_cls, build):
        engine = engine_cls()
        catalog = build(
            engine, small_dataset.triples, small_dataset.interesting_properties
        )
        stored = next(t for t in small_dataset.triples if t.p == "<type>")
        before = _snapshot(engine, catalog)
        for batch in ([stored], [stored, stored], []):
            catalog, report = insert_triples(engine, catalog, batch)
            assert report.tables_rebuilt == [] and report.tables_created == []
            assert report.bytes_rewritten == 0
            assert _snapshot(engine, catalog) == before
        graph = RDFGraph(small_dataset.triples)
        assert _answers(engine, catalog, "q1") == reference_answer(
            graph, "q1", small_dataset.interesting_properties
        )

    @pytest.mark.parametrize("engine_cls", ENGINES)
    @pytest.mark.parametrize("build", BUILDERS)
    def test_repeats_in_a_batch_are_stored_once(self, small_dataset,
                                                engine_cls, build):
        engine = engine_cls()
        catalog = build(
            engine, small_dataset.triples, small_dataset.interesting_properties
        )
        new = Triple("<set/1>", "<type>", "<Text>")
        stored = next(t for t in small_dataset.triples if t.p == "<type>")
        catalog, report = insert_triples(engine, catalog, [new, stored, new])
        assert len(report.tables_rebuilt) == 1
        graph = RDFGraph(small_dataset.triples + [new])
        assert _answers(engine, catalog, "q1") == reference_answer(
            graph, "q1", small_dataset.interesting_properties
        )
        n_rows = sum(engine.table(t).n_rows for t in engine.table_names())
        catalog, report = insert_triples(engine, catalog, [new])
        assert report.tables_rebuilt == []
        assert n_rows == sum(
            engine.table(t).n_rows for t in engine.table_names()
        )


class TestMergeRows:
    def test_needs_a_sort_key_over_every_column(self):
        engine = ColumnStoreEngine()
        engine.create_table("t", {"x": [1, 2], "y": [3, 4]}, sort_by=["x"])
        with pytest.raises(StorageError):
            engine.merge_rows("t", {"x": [5], "y": [6]})

    def test_delta_must_name_every_column(self):
        engine = ColumnStoreEngine()
        engine.create_table("t", {"x": [1, 2], "y": [3, 4]},
                            sort_by=["x", "y"])
        with pytest.raises(StorageError):
            engine.merge_rows("t", {"x": [5]})

    # Scaled by 2**40 the two-column key no longer folds into an int64,
    # so the merge searches structured records instead of folded keys.
    @pytest.mark.parametrize("engine_cls, scale", [
        *(pytest.param(cls, 1, id=cls.__name__) for cls in ENGINES),
        *(pytest.param(cls, 2 ** 40, id=f"{cls.__name__}-wide")
          for cls in ENGINES),
    ])
    def test_merge_equals_load_sort(self, engine_cls, scale):
        rng = np.random.default_rng(4)
        stored = rng.integers(-3, 6, size=(2, 40)) * scale
        delta = rng.integers(-3, 6, size=(2, 25)) * scale
        both = np.concatenate([stored, delta], axis=1)
        assert (row_keys(both) is None) == (scale > 1)
        merged, rebuilt = engine_cls(), engine_cls()
        for engine in (merged, rebuilt):
            engine.create_table("t", {"a": stored[0], "b": stored[1]},
                                sort_by=["b", "a"])
        merged.merge_rows("t", {"a": delta[0], "b": delta[1]})
        rows = {tuple(r) for r in stored.T.tolist()}
        fresh = [r for r in dict.fromkeys(map(tuple, delta.T.tolist()))
                 if r not in rows]
        everything = np.concatenate([stored, np.array(fresh).T], axis=1)
        rebuilt.drop_table("t")
        rebuilt.create_table("t", {"a": everything[0], "b": everything[1]},
                             sort_by=["b", "a"])
        for column in ("a", "b"):
            assert (merged.table("t").array(column).tolist()
                    == rebuilt.table("t").array(column).tolist())
        assert ([(s.name, s.base, s.nbytes) for s in merged.disk.segments()]
                == [(s.name, s.base, s.nbytes)
                    for s in rebuilt.disk.segments()])


# ---------------------------------------------------------------------------
# merge vs rebuild: a differential over random batch sequences
# ---------------------------------------------------------------------------

def _reference_insert(engine, catalog, triples):
    """The insert as it was before ``merge_rows``, plus set semantics:
    re-encode the dictionary, drop each touched table, concatenate the
    de-duplicated batch and let ``create_table`` sort it."""
    dictionary = Dictionary(catalog.dictionary)
    dictionary.needs_reorganization = catalog.dictionary.needs_reorganization
    report = MaintenanceReport(n_triples=len(triples))
    encode = dictionary.encode
    if catalog.is_triple_store():
        rows = [(encode(t.s), encode(t.p), encode(t.o)) for t in triples]
        report.new_properties = sorted(
            {t.p for t in triples} - set(catalog.all_properties)
        )
        _reference_rebuild(engine, catalog.triples_table, rows, report)
        counts = Counter(_columns(engine.table(catalog.triples_table))[1])
        changes = {"all_properties": sorted(
            (dictionary.decode(p) for p in counts),
            key=lambda name: (-counts[dictionary.lookup(name)], name),
        )}
    else:
        by_property = {}
        for t in triples:
            by_property.setdefault(t.p, []).append((encode(t.s), encode(t.o)))
        property_tables = dict(catalog.property_tables)
        for p, pairs in by_property.items():
            name = property_tables.get(p)
            if name is not None:
                _reference_rebuild(engine, name, pairs, report)
                continue
            name = property_tables[p] = f"vp_{encode(p)}"
            pairs = list(dict.fromkeys(pairs))
            indexes = None
            if isinstance(engine, RowStoreEngine):
                indexes = [{"name": f"{name}_os", "columns": ["obj", "subj"]}]
            table = engine.create_table(
                name, {"subj": [s for s, _ in pairs],
                       "obj": [o for _, o in pairs]},
                sort_by=["subj", "obj"], indexes=indexes,
            )
            report.tables_created.append(name)
            report.new_properties.append(p)
            report.bytes_rewritten += table.bytes_on_disk()
        counts = {
            p: engine.table(t).n_rows for p, t in property_tables.items()
        }
        report.new_properties.sort()
        changes = {
            "property_tables": property_tables,
            "all_properties": sorted(counts, key=lambda p: (-counts[p], p)),
        }
    if dictionary.needs_reorganization or not is_order_preserving(dictionary):
        dictionary.needs_reorganization = True
        report.needs_reorganization = True
    return dataclasses.replace(
        catalog, dictionary=dictionary.freeze(), **changes
    ), report


def _reference_rebuild(engine, name, rows, report):
    table = engine.table(name)
    stored = list(zip(*_columns(table)))
    seen = set(stored)
    fresh = []
    for row in rows:
        if row not in seen:
            seen.add(row)
            fresh.append(row)
    if not fresh:
        return
    if isinstance(table, ColumnTable):
        columns, sort_by, indexes = table.column_names(), table.sort_order, None
    else:
        columns, sort_by = table.columns, table.clustering
        indexes = [
            {"name": index.name, "columns": list(index.key_columns)}
            for index in table.secondary_indexes()
        ]
    everything = stored + fresh
    engine.drop_table(name)
    table = engine.create_table(
        name,
        {c: np.asarray([r[i] for r in everything], dtype=np.int64)
         for i, c in enumerate(columns)},
        sort_by=sort_by, indexes=indexes,
    )
    report.tables_rebuilt.append(name)
    report.bytes_rewritten += table.bytes_on_disk()


#: (scheme builder, clustering, engine, compression).
DIFFERENTIAL_CONFIGS = [
    (scheme, clustering, engine_cls, compression)
    for scheme, clustering in (
        (build_triple_store, "PSO"), (build_triple_store, "SPO"),
        (build_vertical_store, None),
    )
    for engine_cls, compression in (
        (ColumnStoreEngine, None), (ColumnStoreEngine, "physical"),
        (RowStoreEngine, None),
    )
]

DIFF_DATA = generate_barton(
    n_triples=1_000, n_properties=12, n_interesting=6, seed=21
)
_SUBJECTS = sorted({t.s for t in DIFF_DATA.triples})[:12] + [
    "<diff/s0>", "<diff/s1>",
]
_PROPERTIES = sorted({t.p for t in DIFF_DATA.triples})[:5] + ["<diff/prop>"]
_OBJECTS = sorted({t.o for t in DIFF_DATA.triples})[:8] + ['"diff literal"']


@st.composite
def _batches(draw):
    triple = st.one_of(
        st.sampled_from(DIFF_DATA.triples[:40]),  # already stored
        st.builds(Triple, st.sampled_from(_SUBJECTS),
                  st.sampled_from(_PROPERTIES), st.sampled_from(_OBJECTS)),
        st.just(Triple("<diff/s1>", "<diff/prop>", '"diff literal"')),
    )
    batches = []
    for _ in range(draw(st.integers(1, 3))):
        batch = draw(st.lists(triple, max_size=8))
        repeats = draw(st.lists(st.integers(0, 7), max_size=3))
        batches.append(batch + [batch[i % len(batch)] for i in repeats
                                if batch])
    return batches


def _deploy(config):
    build, clustering, engine_cls, compression = config
    engine = (engine_cls(compression=compression)
              if compression else engine_cls())
    kwargs = {"clustering": clustering} if clustering else {}
    catalog = build(
        engine, DIFF_DATA.triples, DIFF_DATA.interesting_properties, **kwargs
    )
    return engine, catalog


def _queries(engine, catalog):
    out = {}
    for name in ALL_QUERY_NAMES:
        plan = build_query(catalog, name)
        relation, timing = engine.run(plan, mode="cold")
        out[name] = (
            relation.decoded_tuples(
                catalog.dictionary, order=plan.output_columns()
            ),
            timing.to_dict(),
        )
    return out


class TestMergeVersusRebuild:
    """``merge_rows`` must lay every table out exactly as dropping it and
    re-sorting stored plus new rows would: same arrays or rows, segments,
    table order, footprint, reports, catalogs, and q1–q8 rows and cold
    cost documents."""

    @settings(max_examples=50)
    @given(config=st.sampled_from(DIFFERENTIAL_CONFIGS), batches=_batches())
    def test_merge_equals_drop_and_resort(self, config, batches):
        merged, merged_catalog = _deploy(config)
        rebuilt, rebuilt_catalog = _deploy(config)
        for batch in batches:
            merged_catalog, report = insert_triples(
                merged, merged_catalog, batch
            )
            rebuilt_catalog, expected = _reference_insert(
                rebuilt, rebuilt_catalog, batch
            )
            assert report == expected
        assert (_snapshot(merged, merged_catalog)
                == _snapshot(rebuilt, rebuilt_catalog))
        assert (_queries(merged, merged_catalog)
                == _queries(rebuilt, rebuilt_catalog))


class TestInsertInterpreterWork:
    """A 50-triple insert makes the same number of ``src/repro`` calls
    whatever the store size: nothing walks stored rows or the vocabulary
    in Python."""

    @pytest.mark.parametrize("build", BUILDERS)
    def test_calls_do_not_grow_with_store(self, repro_calls, build):
        counts = []
        for n_triples in (4_000, 8_000):
            data = generate_barton(
                n_triples=n_triples, n_properties=30, n_interesting=20,
                seed=3,
            )
            engine = ColumnStoreEngine()
            catalog = build(engine, data.triples, data.interesting_properties)
            batch = [
                Triple(f"<work/{i}>", data.properties[1 + i % 19],
                       data.entity_name(i))
                for i in range(50)
            ]
            calls = repro_calls(
                lambda: insert_triples(engine, catalog, batch)
            )
            counts.append(sum(calls.values()))
        assert counts[0] == counts[1] <= 1_500, counts


class TestDropTable:
    def test_column_store_drop_and_recreate(self):
        engine = ColumnStoreEngine()
        engine.create_table("t", {"x": [1, 2]}, sort_by=["x"])
        engine.drop_table("t")
        assert not engine.has_table("t")
        engine.create_table("t", {"x": [3]}, sort_by=["x"])  # name reusable
        assert engine.table("t").n_rows == 1

    def test_row_store_drop_and_recreate(self):
        engine = RowStoreEngine()
        engine.create_table(
            "t", {"x": [1, 2], "y": [3, 4]}, sort_by=["x"],
            indexes=[{"name": "ix", "columns": ["y"]}],
        )
        engine.drop_table("t")
        assert not engine.has_table("t")
        engine.create_table("t", {"x": [9], "y": [8]}, sort_by=["x"])
        assert engine.table("t").n_rows == 1

    def test_drop_unknown_table(self):
        engine = ColumnStoreEngine()
        with pytest.raises(StorageError):
            engine.drop_table("ghost")
