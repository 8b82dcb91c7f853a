"""Tests for the storage-scheme builders and catalogs."""

import numpy as np
import pytest

from repro import api
from repro.colstore import ColumnStoreEngine
from repro.data import generate_barton
from repro.errors import StorageError
from repro.model.triple import Triple
from repro.queries import build_query, reference_answer
from repro.rowstore import RowStoreEngine
from repro.storage import (
    build_property_table_store,
    build_triple_store,
    build_vertical_store,
)
from repro.storage.catalog import CLUSTERINGS, clustering_columns
from repro.storage.encoding import is_order_preserving


@pytest.fixture(scope="module")
def dataset():
    return generate_barton(n_triples=5_000, n_properties=30, seed=5)


class TestClusterings:
    def test_all_six_permutations(self):
        assert len(CLUSTERINGS) == 6
        for name, cols in CLUSTERINGS.items():
            assert sorted(cols) == ["obj", "prop", "subj"]

    def test_lookup_case_insensitive(self):
        assert clustering_columns("pso") == ("prop", "subj", "obj")

    def test_unknown_clustering(self):
        with pytest.raises(StorageError):
            clustering_columns("XYZ")


class TestTripleStoreBuilder:
    def test_column_store_pso(self, dataset):
        engine = ColumnStoreEngine()
        cat = build_triple_store(
            engine, dataset.triples, dataset.interesting_properties,
            clustering="PSO",
        )
        assert cat.is_triple_store()
        table = engine.table("triples")
        assert table.n_rows == len(dataset.triples)
        assert table.sort_order == ["prop", "subj", "obj"]
        prop = table.array("prop")
        assert (np.diff(prop) >= 0).all()

    def test_row_store_gets_indexes(self, dataset):
        engine = RowStoreEngine()
        cat = build_triple_store(
            engine, dataset.triples, dataset.interesting_properties,
            clustering="PSO",
        )
        table = engine.table("triples")
        # PSO: clustered + 5 secondary permutations.
        assert len(table.secondary_indexes()) == 5

    def test_row_store_spo_has_two_secondaries(self, dataset):
        engine = RowStoreEngine()
        build_triple_store(
            engine, dataset.triples, dataset.interesting_properties,
            clustering="SPO",
        )
        table = engine.table("triples")
        names = sorted(i.name for i in table.secondary_indexes())
        assert names == ["idx_osp", "idx_pos"]

    def test_properties_table_holds_interesting(self, dataset):
        engine = ColumnStoreEngine()
        cat = build_triple_store(
            engine, dataset.triples, dataset.interesting_properties,
        )
        props = engine.table("properties")
        assert props.n_rows == len(dataset.interesting_properties)
        decoded = {cat.dictionary.decode(v) for v in props.array("prop")}
        assert decoded == set(dataset.interesting_properties)

    def test_dictionary_round_trip(self, dataset):
        engine = ColumnStoreEngine()
        cat = build_triple_store(
            engine, dataset.triples, dataset.interesting_properties,
        )
        t = dataset.triples[0]
        table = engine.table("triples")
        oids = (
            cat.dictionary.lookup(t.s),
            cat.dictionary.lookup(t.p),
            cat.dictionary.lookup(t.o),
        )
        rows = set(
            zip(
                table.array("subj").tolist(),
                table.array("prop").tolist(),
                table.array("obj").tolist(),
            )
        )
        assert oids in rows

    def test_encode_missing_constant(self, dataset):
        engine = ColumnStoreEngine()
        cat = build_triple_store(
            engine, dataset.triples, dataset.interesting_properties,
        )
        assert cat.encode("<never-seen>") is None


class TestVerticalStoreBuilder:
    def test_one_table_per_property(self, dataset):
        engine = ColumnStoreEngine()
        cat = build_vertical_store(
            engine, dataset.triples, dataset.interesting_properties,
        )
        assert cat.is_vertical()
        assert len(cat.property_tables) == 30
        total = sum(
            engine.table(t).n_rows for t in cat.property_tables.values()
        )
        assert total == len(dataset.triples)

    def test_tables_sorted_so(self, dataset):
        engine = ColumnStoreEngine()
        cat = build_vertical_store(
            engine, dataset.triples, dataset.interesting_properties,
        )
        table = engine.table(cat.property_table("<type>"))
        subj = table.array("subj")
        assert (np.diff(subj) >= 0).all()

    def test_row_store_gets_os_secondary(self, dataset):
        engine = RowStoreEngine()
        cat = build_vertical_store(
            engine, dataset.triples, dataset.interesting_properties,
        )
        table = engine.table(cat.property_table("<type>"))
        assert table.clustering == ["subj", "obj"]
        (os_index,) = table.secondary_indexes()
        assert os_index.key_columns == ["obj", "subj"]

    def test_small_tail_tables_exist(self, dataset):
        """Paper: 'many with just a small number of rows (less than 10)'."""
        engine = ColumnStoreEngine()
        cat = build_vertical_store(
            engine, dataset.triples, dataset.interesting_properties,
        )
        sizes = [
            engine.table(t).n_rows for t in cat.property_tables.values()
        ]
        assert min(sizes) < 10

    def test_missing_property_table_raises(self, dataset):
        engine = ColumnStoreEngine()
        cat = build_vertical_store(
            engine, dataset.triples, dataset.interesting_properties,
        )
        with pytest.raises(StorageError):
            cat.property_table("<ghost>")

    def test_properties_for_scopes(self, dataset):
        engine = ColumnStoreEngine()
        cat = build_vertical_store(
            engine, dataset.triples, dataset.interesting_properties,
        )
        assert len(cat.properties_for("interesting")) == 28
        assert len(cat.properties_for("all")) == 30
        assert cat.properties_for(["<type>"]) == ["<type>"]

    def test_all_properties_sorted_by_frequency(self, dataset):
        engine = ColumnStoreEngine()
        cat = build_vertical_store(
            engine, dataset.triples, dataset.interesting_properties,
        )
        sizes = [
            engine.table(cat.property_table(p)).n_rows
            for p in cat.all_properties
        ]
        assert sizes == sorted(sizes, reverse=True)


class TestSchemeFootprints:
    def test_vertical_smaller_than_triple_on_disk(self, dataset):
        """Two columns per table instead of three: the vertical scheme's raw
        data footprint is smaller."""
        col_t = ColumnStoreEngine()
        build_triple_store(
            col_t, dataset.triples, dataset.interesting_properties
        )
        col_v = ColumnStoreEngine()
        build_vertical_store(
            col_v, dataset.triples, dataset.interesting_properties
        )
        triples_bytes = col_t.table("triples").bytes_on_disk()
        vertical_bytes = sum(
            col_v.table(t).bytes_on_disk()
            for t in col_v.table_names()
            if t.startswith("vp_")
        )
        assert vertical_bytes < triples_bytes

    def test_shared_dictionary_between_schemes(self, dataset):
        from repro.dictionary import Dictionary

        d = Dictionary()
        col = ColumnStoreEngine()
        cat1 = build_triple_store(
            col, dataset.triples, dataset.interesting_properties,
            dictionary=d,
        )
        col2 = ColumnStoreEngine()
        cat2 = build_vertical_store(
            col2, dataset.triples, dataset.interesting_properties,
            dictionary=d,
        )
        assert cat1.dictionary.lookup("<type>") == cat2.dictionary.lookup("<type>")


class TestOrderPreservingEncoding:
    def test_builders_produce_order_preserving_dictionaries(self, dataset):
        from repro.storage.encoding import is_order_preserving

        for build in (build_triple_store, build_vertical_store):
            engine = ColumnStoreEngine()
            catalog = build(
                engine, dataset.triples, dataset.interesting_properties
            )
            assert is_order_preserving(catalog.dictionary)

    def test_oid_comparisons_realize_string_comparisons(self, dataset):
        engine = ColumnStoreEngine()
        catalog = build_triple_store(
            engine, dataset.triples, dataset.interesting_properties
        )
        d = catalog.dictionary
        strings = sorted({t.p for t in dataset.triples})[:10]
        oids = [d.lookup(s) for s in strings]
        assert oids == sorted(oids)

    def test_maintenance_appends_break_order_preservation(self, dataset):
        """New strings get appended oids — order preservation is a
        load-time property, lost until reorganization (documented)."""
        from repro.model.triple import Triple
        from repro.storage.encoding import is_order_preserving
        from repro.storage.maintenance import insert_triples

        engine = ColumnStoreEngine()
        catalog = build_triple_store(
            engine, dataset.triples, dataset.interesting_properties
        )
        catalog, _ = insert_triples(
            engine, catalog, [Triple("<aaa-first>", "<prop/0>", "<zzz>")]
        )
        assert not is_order_preserving(catalog.dictionary)

    def test_maintenance_appends_flag_reorganization(self, dataset):
        """Order breakage is *detected*, not silent: the dictionary and
        the maintenance report both carry ``needs_reorganization``."""
        from repro.model.triple import Triple
        from repro.storage.maintenance import insert_triples

        engine = ColumnStoreEngine()
        catalog = build_triple_store(
            engine, dataset.triples, dataset.interesting_properties
        )
        assert not catalog.dictionary.needs_reorganization
        catalog, report = insert_triples(
            engine, catalog, [Triple("<aaa-first>", "<prop/0>", "<zzz>")]
        )
        assert report.needs_reorganization
        assert catalog.dictionary.needs_reorganization
        # The flag is sticky across further (even order-safe) inserts.
        catalog, report = insert_triples(
            engine, catalog, [Triple("<aaa-first>", "<prop/0>", "<zzz>")]
        )
        assert report.needs_reorganization
        assert catalog.dictionary.needs_reorganization

    def test_order_safe_appends_do_not_flag_reorganization(self, dataset):
        """Re-inserting known strings allocates no oids and keeps the
        dictionary order-preserving — no reorganization flag."""
        from repro.storage.maintenance import insert_triples

        engine = ColumnStoreEngine()
        catalog = build_triple_store(
            engine, dataset.triples, dataset.interesting_properties
        )
        catalog, report = insert_triples(
            engine, catalog, [dataset.triples[0]]
        )
        assert not report.needs_reorganization
        assert not catalog.dictionary.needs_reorganization

    def test_extending_nonempty_dictionary_warns(self, dataset):
        """encode_triples() on a pre-populated dictionary breaks the order
        guarantee silently no more: it warns and flags the dictionary for
        reorganization."""
        from repro.model.triple import Triple
        from repro.storage.encoding import (
            OrderPreservationWarning,
            encode_triples,
        )

        d, _ = encode_triples([Triple("<m>", "<n>", "<o>")])
        assert not d.needs_reorganization
        with pytest.warns(OrderPreservationWarning):
            _, columns = encode_triples(
                [Triple("<a>", "<b>", "<c>"), Triple("<m>", "<b>", "<o>")],
                dictionary=d,
            )
        assert d.needs_reorganization
        # The new strings are appended in sorted order after the old ones.
        assert list(d) == ["<m>", "<n>", "<o>", "<a>", "<b>", "<c>"]
        assert {c: a.tolist() for c, a in columns.items()} == {
            "subj": [3, 0], "prop": [4, 4], "obj": [5, 2],
        }

    def test_extending_with_larger_strings_does_not_warn(self):
        """Appending strings that sort after everything present keeps the
        order guarantee — no warning, no flag."""
        import warnings

        from repro.model.triple import Triple
        from repro.storage.encoding import encode_triples

        d, _ = encode_triples([Triple("<a>", "<b>", "<c>")])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            encode_triples([Triple("<x>", "<y>", "<z>")], dictionary=d)
        assert not d.needs_reorganization


def test_property_order_preserving_dictionary():
    """Hypothesis: any vocabulary gets order-isomorphic oids."""
    from hypothesis import given, strategies as st
    from repro.model.triple import Triple
    from repro.storage.encoding import encode_triples, is_order_preserving

    @given(
        st.lists(
            st.tuples(st.text(max_size=8), st.text(max_size=8),
                      st.text(max_size=8)),
            max_size=30,
        )
    )
    def check(raw):
        triples = [Triple(*t) for t in raw]
        d, columns = encode_triples(triples)
        assert is_order_preserving(d)
        strings = sorted({x for t in triples for x in t})
        assert [d.lookup(s) for s in strings] == list(range(len(strings)))
        assert [d.decode_many(columns[c]) for c in ("subj", "prop", "obj")
                ] == [[t[i] for t in triples] for i in range(3)]

    check()


# ---------------------------------------------------------------------------
# One preparation for every scheme
# ---------------------------------------------------------------------------

_BUILDERS = {
    "triple": build_triple_store,
    "vertical": build_vertical_store,
    "property_table": build_property_table_store,
}
_ENGINE_CLASSES = {"column": ColumnStoreEngine, "row": RowStoreEngine}


def _answer(engine, catalog, name):
    plan = build_query(catalog, name)
    return sorted(engine.execute(plan).decoded_tuples(
        catalog.dictionary, order=plan.output_columns()
    ))


@pytest.fixture(scope="module")
def small():
    return generate_barton(n_triples=2_000, n_properties=30, seed=3)


class TestNamedPropertiesAbsentFromData:
    """An interesting property without triples used to be interned with an
    appended oid, silently breaking order preservation (and the vertical
    q2/q3, which had no table for it)."""

    MISSING = "<aaa/missing>"

    @pytest.mark.parametrize("scheme", sorted(_BUILDERS))
    def test_builders_keep_order_and_answer(self, small, scheme):
        engine = ColumnStoreEngine()
        named = [self.MISSING] + list(small.interesting_properties)
        catalog = _BUILDERS[scheme](engine, small.triples, named)
        assert is_order_preserving(catalog.dictionary)
        assert not catalog.dictionary.needs_reorganization
        # The filter table keeps every named oid; only the listed
        # properties, which the vertical store enumerates, must have data.
        assert engine.table("properties").n_rows == len(named)
        assert catalog.interesting_properties == list(
            small.interesting_properties
        )
        for name in ("q2", "q3"):
            assert _answer(engine, catalog, name) == reference_answer(
                small.graph(), name, small.interesting_properties
            )

    def test_connect_answers_like_the_triple_scheme(self, small):
        named = list(small.interesting_properties) + [self.MISSING]
        rows = {}
        for scheme in ("triple", "vertical"):
            conn = api.connect(
                triples=small.triples, scheme=scheme,
                interesting_properties=named,
            )
            assert is_order_preserving(conn.store.catalog.dictionary)
            session = conn.session()
            rows[scheme] = [
                sorted(session.query(q).rows) for q in ("q2", "q3")
            ]
        assert rows["vertical"] == rows["triple"]

    def test_clustered_property_must_have_triples(self, small):
        with pytest.raises(StorageError, match="aaa/missing"):
            build_property_table_store(
                ColumnStoreEngine(), small.triples,
                small.interesting_properties,
                clustered_properties=["<type>", self.MISSING],
            )


class TestNonStringTerms:
    """A term that is not a string is a ``DictionaryError`` from every
    scheme's preparation and from the C-Store load, never the
    ``TypeError`` of sorting it against a string."""

    @staticmethod
    def _triples(term, position):
        triples = [Triple("<a>", "<type>", "<Text>"),
                   Triple("<b>", "<title>", "<x>")]
        bad = ["<c>", "<title>", "<y>"]
        bad[position] = term
        return triples + [Triple(*bad)]

    @pytest.mark.parametrize("position", [0, 1, 2])
    @pytest.mark.parametrize("term", [5, None])
    def test_every_scheme_preparation(self, term, position):
        from repro.errors import DictionaryError
        from repro.storage.property_table import (
            prepare_property_table_payload,
        )
        from repro.storage.triple_store import prepare_triple_payload
        from repro.storage.vertical_store import prepare_vertical_payload

        triples = self._triples(term, position)
        for prepare in (prepare_triple_payload, prepare_vertical_payload,
                        prepare_property_table_payload):
            with pytest.raises(DictionaryError, match="must be str"):
                prepare(triples, ["<type>"])

    def test_only_non_strings(self):
        from repro.errors import DictionaryError
        from repro.storage.triple_store import prepare_triple_payload

        with pytest.raises(DictionaryError, match="got int"):
            prepare_triple_payload([Triple(1, 2, 3)], None)
        with pytest.raises(DictionaryError, match="got int"):
            prepare_triple_payload([Triple("<a>", "<b>", "<c>")], [7])

    @pytest.mark.parametrize("scheme", ["vertical", "triple"])
    @pytest.mark.parametrize("engine", ["column", "row"])
    def test_connect(self, engine, scheme):
        from repro.errors import DictionaryError

        with pytest.raises(DictionaryError):
            api.connect(triples=self._triples(5, 2), engine=engine,
                        scheme=scheme)

    @pytest.mark.parametrize("position", [0, 2])
    @pytest.mark.parametrize("term", [5, None])
    def test_cstore_load(self, term, position):
        from repro.cstore import CStoreEngine
        from repro.errors import DictionaryError

        with pytest.raises(DictionaryError, match="must be str"):
            CStoreEngine().load_vertical(
                self._triples(term, position), ["<type>", "<title>"]
            )
        with pytest.raises(DictionaryError, match="must be str"):
            CStoreEngine().load_vertical(self._triples("<z>", 0), [None])


class TestStoresAreSets:
    """A triple repeated in the input is stored once, by every builder."""

    @pytest.mark.parametrize("engine_kind", sorted(_ENGINE_CLASSES))
    @pytest.mark.parametrize("scheme", sorted(_BUILDERS))
    def test_duplicate_counted_once(self, small, scheme, engine_kind):
        repeated = small.triples[0]
        assert repeated.p == "<type>"
        engine = _ENGINE_CLASSES[engine_kind]()
        catalog = _BUILDERS[scheme](
            engine, list(small.triples) + [repeated, repeated],
            small.interesting_properties,
        )
        assert _answer(engine, catalog, "q1") == reference_answer(
            small.graph(), "q1", small.interesting_properties
        )

    @pytest.mark.parametrize("scheme", ["triple", "vertical"])
    def test_store_reports_stored_count(self, small, scheme):
        conn = api.connect(
            triples=list(small.triples) + small.triples[:5], scheme=scheme
        )
        assert conn.store.n_triples == len(small.triples)


class TestReadOnlyColumns:
    def test_in_place_write_raises(self, small):
        engine = ColumnStoreEngine()
        build_triple_store(
            engine, small.triples, small.interesting_properties
        )
        with pytest.raises(ValueError):
            engine.table("triples").array("subj")[0] = 1

    def test_vertical_tables_are_views_of_one_pair(self, small):
        engine = ColumnStoreEngine()
        catalog = build_vertical_store(
            engine, small.triples, small.interesting_properties
        )
        first, second = list(catalog.property_tables.values())[:2]
        a = engine.table(first).array("subj")
        b = engine.table(second).array("subj")
        assert a.base is b.base
        assert np.shares_memory(a.base, a) and np.shares_memory(a.base, b)
        assert a.base.size == len(small.triples)


# -- the parent's three preparations, kept here as the reference ----------


def _reference_sort(columns, sort_by):
    order = np.lexsort(tuple(columns[c] for c in reversed(sort_by)))
    return {c: a[order] for c, a in columns.items()}


def _reference_encode(triples):
    from collections import Counter

    from repro.dictionary import Dictionary

    dictionary = Dictionary(sorted({x for t in triples for x in t}))
    n = len(triples)
    arrays = {
        col: np.fromiter(
            dictionary.encode_many([getattr(t, a) for t in triples]),
            dtype=np.int64, count=n,
        )
        for col, a in (("subj", "s"), ("prop", "p"), ("obj", "o"))
    }
    counts = Counter(t.p for t in triples)
    ranked = sorted(counts, key=lambda p: (-counts[p], p))
    return dictionary, arrays, ranked


def _reference_properties(dictionary, interesting, with_indexes):
    oids = np.asarray(
        [dictionary.encode(p) for p in interesting], dtype=np.int64
    )
    return ("properties", _reference_sort({"prop": oids}, ["prop"]),
            ["prop"], [] if with_indexes else None)


def _reference_triple(triples, interesting, clustering, with_indexes):
    index_sets = {
        "SPO": ("POS", "OSP"),
        "PSO": ("OPS", "OSP", "POS", "SOP", "SPO"),
    }
    sort_by = list(CLUSTERINGS[clustering])
    dictionary, arrays, ranked = _reference_encode(triples)
    indexes = None
    if with_indexes:
        indexes = [
            {"name": f"idx_{perm.lower()}",
             "columns": list(CLUSTERINGS[perm])}
            for perm in index_sets[clustering]
        ]
    tables = [
        ("triples", _reference_sort(arrays, sort_by), sort_by, indexes),
        _reference_properties(dictionary, interesting, with_indexes),
    ]
    return dictionary, tables, dict(
        scheme="triple", clustering=clustering,
        interesting_properties=list(interesting), all_properties=ranked,
        triples_table="triples", properties_table="properties",
    )


def _reference_vertical(triples, interesting, with_indexes):
    dictionary, arrays, ranked = _reference_encode(triples)
    tables = []
    property_tables = {}
    for p_name in dict.fromkeys(t.p for t in triples):
        oid = dictionary.lookup(p_name)
        members = np.flatnonzero(arrays["prop"] == oid)
        name = f"vp_{oid}"
        indexes = None
        if with_indexes:
            indexes = [{"name": f"{name}_os", "columns": ["obj", "subj"]}]
        columns = {"subj": arrays["subj"][members],
                   "obj": arrays["obj"][members]}
        tables.append((name, _reference_sort(columns, ["subj", "obj"]),
                       ["subj", "obj"], indexes))
        property_tables[p_name] = name
    tables.append(_reference_properties(dictionary, interesting, with_indexes))
    return dictionary, tables, dict(
        scheme="vertical", clustering="SO",
        interesting_properties=list(interesting), all_properties=ranked,
        properties_table="properties", property_tables=property_tables,
    )


def _reference_property_table(triples, interesting, with_indexes):
    from repro.storage.property_table import NULL_OID

    dictionary, _, ranked = _reference_encode(triples)
    clustered_set = set(interesting)
    by_subject_property = {}
    leftover_rows = []
    for t in triples:
        s, p, o = (dictionary.encode(x) for x in (t.s, t.p, t.o))
        if t.p in clustered_set:
            by_subject_property.setdefault((s, p), []).append(o)
        else:
            leftover_rows.append((s, p, o))
    cell_values = {}
    for (s, p), values in by_subject_property.items():
        if len(values) == 1:
            cell_values[(s, p)] = values[0]
        else:
            leftover_rows.extend((s, p, o) for o in values)
    subjects = np.asarray(
        sorted({s for s, _ in cell_values}), dtype=np.int64
    )
    position = {s: i for i, s in enumerate(subjects.tolist())}
    columns = {"subj": subjects}
    clustered_columns = {}
    for prop in interesting:
        column = f"p_{dictionary.encode(prop)}"
        columns[column] = np.full(len(subjects), NULL_OID, dtype=np.int64)
        clustered_columns[prop] = column
    for (s, p), o in cell_values.items():
        columns[clustered_columns[dictionary.decode(p)]][position[s]] = o
    leftover = {
        c: np.asarray([row[i] for row in leftover_rows], dtype=np.int64)
        for i, c in enumerate(("subj", "prop", "obj"))
    }
    pso = ["prop", "subj", "obj"]
    leftover_indexes = None
    if with_indexes:
        leftover_indexes = [
            {"name": "leftover_pos", "columns": ["prop", "obj", "subj"]},
            {"name": "leftover_spo", "columns": ["subj", "prop", "obj"]},
        ]
    tables = [
        ("ptable", _reference_sort(columns, ["subj"]), ["subj"],
         [] if with_indexes else None),
        ("triples", _reference_sort(leftover, pso), pso, leftover_indexes),
        _reference_properties(dictionary, interesting, with_indexes),
    ]
    return dictionary, tables, dict(
        scheme="property_table", clustering="subj+PSO",
        interesting_properties=list(interesting), all_properties=ranked,
        triples_table="triples", properties_table="properties",
        property_table_name="ptable",
        clustered_property_columns=clustered_columns,
    )


def _assert_payload_equals(payload, reference):
    dictionary, tables, catalog = reference
    assert payload["strings"] == list(dictionary)
    assert payload["catalog"] == catalog
    assert len(payload["tables"]) == len(tables)
    for entry, (name, columns, sort_by, indexes) in zip(
        payload["tables"], tables
    ):
        assert entry["name"] == name
        assert entry["sort_by"] == sort_by
        assert entry["indexes"] == indexes
        assert list(entry["columns"]) == list(columns)
        for column, values in columns.items():
            got = entry["columns"][column]
            assert got.dtype == np.int64
            assert np.array_equal(got, values), (name, column)


class TestOnePreparation:
    """Hypothesis: on sets of triples, every scheme's payload equals the
    one the per-scheme encode-and-sort code it replaced produced."""

    def test_wide_vocabulary_sorts_like_the_folded_key(self):
        """A composite that fits an int64 is folded, a wider one is not;
        either way, and with ties, rows sort stably like ``np.lexsort``."""
        from repro.storage.encoding import FOLD_MIN_ROWS, row_keys, row_order

        rng = np.random.default_rng(0)
        n = 2 * FOLD_MIN_ROWS
        keys = [rng.integers(-1, 40, n) for _ in range(3)]
        wide = [k * 2 ** 21 for k in keys]  # (40 * 2**21 + 1) ** 3 > 2**63
        folded = row_keys(keys)
        assert folded.dtype == np.int64 and row_keys(wide) is None
        assert np.array_equal(np.argsort(folded, kind="stable"),
                              np.lexsort(keys[::-1]))
        for columns in (keys, wide, [k[:50] for k in keys]):
            assert np.array_equal(row_order(columns),
                                  np.lexsort(columns[::-1]))
        distinct = [rng.permutation(n), rng.integers(0, 9, n)]
        assert np.array_equal(row_order(distinct), np.argsort(distinct[0]))

    def test_payloads_equal_the_reference(self):
        from hypothesis import given, settings, strategies as st

        from repro.storage.property_table import (
            prepare_property_table_payload,
        )
        from repro.storage.triple_store import prepare_triple_payload
        from repro.storage.vertical_store import prepare_vertical_payload

        node = st.integers(0, 9).map(lambda i: f"<n{i}>")
        raw = st.lists(
            st.tuples(node, st.integers(0, 11).map(lambda i: f"<p{i}>"),
                      node),
            unique=True, max_size=60,
        )

        @settings(max_examples=150, deadline=None)
        @given(raw, st.integers(0, 5), st.booleans(), st.sampled_from(
            ["PSO", "SPO"]
        ))
        def check(rows, n_interesting, with_indexes, clustering):
            triples = [Triple(*r) for r in rows]
            properties = sorted({t.p for t in triples})
            interesting = properties[:n_interesting]
            _assert_payload_equals(
                prepare_triple_payload(
                    triples, interesting, clustering=clustering,
                    with_indexes=with_indexes,
                ),
                _reference_triple(
                    triples, interesting, clustering, with_indexes
                ),
            )
            _assert_payload_equals(
                prepare_vertical_payload(
                    triples, interesting, with_indexes=with_indexes
                ),
                _reference_vertical(triples, interesting, with_indexes),
            )
            if interesting:
                _assert_payload_equals(
                    prepare_property_table_payload(
                        triples, interesting, with_indexes=with_indexes
                    ),
                    _reference_property_table(
                        triples, interesting, with_indexes
                    ),
                )

        check()


# -- store-build digests ---------------------------------------------------


def _digest(document):
    import hashlib

    return hashlib.sha256(repr(document).encode()).hexdigest()[:16]


def _tree_document(tree):
    """Root, order, size and every node page of a B+tree: leaf keys,
    values and links, internal separators and children."""
    nodes = [
        (node.page, node.keys, node.values, node.next_leaf) if node.is_leaf
        else (node.page, node.keys, node.children)
        for node in tree._nodes
    ]
    return (tree._root_page, tree.order, len(tree), nodes)


def _encoding_document(encoding):
    if encoding is None:
        return None
    fields = []
    for slot in type(encoding).__slots__:
        value = getattr(encoding, slot)
        if isinstance(value, np.ndarray):
            value = (value.dtype.str, value.tobytes())
        fields.append((slot, value))
    return (type(encoding).__name__, fields)


def _table_document(table):
    if hasattr(table, "rows"):
        return ("row", table.columns, table.clustering, table.rows, [
            (index.name, index.key_columns, index.clustered,
             index.segment.name, _tree_document(index.tree))
            for index in table.all_indexes()
        ])
    return ("column", table.column_names(), table.sort_order, [
        (column, table.array(column).dtype.str,
         table.array(column).tobytes(),
         _encoding_document(table.encodings.get(column)))
        for column in table.column_names()
    ])


def _kv_document(catalog):
    return [
        (name, kv.name, kv.segment.name, _tree_document(kv._tree))
        for name, kv in ((n, catalog.get(n)) for n in catalog.names())
    ]


def _store_document(engine, catalog):
    """The dictionary strings, the disk segments in creation order, and
    every table (or C-Store KV database) of one deployed store."""
    segments = [(s.name, s.base, s.nbytes) for s in engine.disk.segments()]
    if catalog is None:  # the C-Store replica
        return (list(engine.dictionary), segments, engine.properties,
                _kv_document(engine.catalog),
                _kv_document(engine.subject_projections))
    return (list(catalog.dictionary), segments, [
        (name, _table_document(engine.table(name)))
        for name in engine.table_names()
    ])


def _digest_dataset():
    import dataclasses

    from repro.data.barton import WELL_KNOWN_PROPERTIES
    from repro.data.splitting import split_properties

    dataset = generate_barton(n_triples=3_000, seed=47)
    triples, properties = split_properties(
        dataset.triples, 300, seed=47, protected=WELL_KNOWN_PROPERTIES,
        max_subproperties=50,
    )
    return dataset, dataclasses.replace(
        dataset, triples=triples, properties=properties
    )


def _digest_batch(dataset):
    """New subjects over stored properties, a stored triple, a repeated
    triple and a property the store has never seen."""
    batch = [
        Triple(f"<digest/{i}>", dataset.properties[1 + i % 19],
               dataset.entity_name(i * 37 % dataset.n_entities))
        for i in range(30)
    ]
    return batch + [dataset.triples[5], batch[3],
                    Triple("<digest/new>", "<digest/property>", "<Text>")]


#: (system, scheme, clustering, compression, split): every ``deploy_write``
#: configuration of the wall-clock benchmark.
_DIGEST_CONFIGS = {
    "dbx_triple_spo": ("DBX", "triple", "SPO", None, False),
    "dbx_triple_pso": ("DBX", "triple", "PSO", None, False),
    "dbx_vert_so": ("DBX", "vert", "SO", None, False),
    "monetdb_triple_spo": ("MonetDB", "triple", "SPO", None, False),
    "monetdb_triple_pso": ("MonetDB", "triple", "PSO", None, False),
    "monetdb_vert_so": ("MonetDB", "vert", "SO", None, False),
    "cstore_vert_so": ("C-Store", "vert", "SO", None, False),
    "monetdb_vert_physical": ("MonetDB", "vert", "SO", "physical", False),
    "monetdb_triple_physical": ("MonetDB", "triple", "PSO", "physical",
                                False),
    "monetdb_vert_split": ("MonetDB", "vert", "SO", None, True),
    "dbx_vert_split": ("DBX", "vert", "SO", None, True),
}

#: Captured before the store build moved to C-level passes: config ->
#: (digest of the deployed store, digest after one insert batch).
_BUILD_DIGESTS = {
    'cstore_vert_so': ('ad6885e20234b4fe', None),
    'dbx_triple_pso': ('9d3498543059327a', '2f50d0d394b3982b'),
    'dbx_triple_spo': ('2c50196febb38c42', 'bccb586050f98de9'),
    'dbx_vert_so': ('7cdbd4bd0e9b4f14', '2493c69bfdb16ffd'),
    'dbx_vert_split': ('ffb7ab6c8b6c8204', 'b33067cc7bab9d83'),
    'monetdb_triple_physical': ('07ec91c1f338e01e', '9993901b5c257bed'),
    'monetdb_triple_pso': ('1a564ea18a07fa6a', 'b964ae7db4858f48'),
    'monetdb_triple_spo': ('a1af605eae75b78d', '164559bd34f5e0dc'),
    'monetdb_vert_physical': ('ac2011a374909e58', 'e835418842c2865c'),
    'monetdb_vert_so': ('f066c1d5726022e7', 'a3c9164c6c834800'),
    'monetdb_vert_split': ('9e60c613e6e97aba', 'b1c2879a6c73b306'),
}


class TestStoreBuildDigest:
    """Every benchmark deployment, built from a fixed small dataset, and
    the SQL ones after one insert batch, digest to what the per-row build
    produced: dictionary strings, disk segments in creation order, column
    arrays and codecs, row heaps, every B+tree node, every C-Store KV
    tree."""

    @pytest.fixture(scope="class")
    def datasets(self):
        return _digest_dataset()

    @pytest.mark.parametrize("config", sorted(_DIGEST_CONFIGS))
    def test_build_and_insert_digests(self, datasets, config, monkeypatch):
        from repro.bench.systems import deploy
        from repro.storage.maintenance import insert_triples

        monkeypatch.delenv("REPRO_COMPRESS", raising=False)
        system, scheme, clustering, compression, split = (
            _DIGEST_CONFIGS[config]
        )
        dataset = datasets[1] if split else datasets[0]
        deployment = deploy(dataset, system, scheme, clustering,
                            cache=False, compression=compression)
        engine, catalog = deployment.engine, deployment.catalog
        digests = [_digest(_store_document(engine, catalog)), None]
        if catalog is not None:
            catalog, _ = insert_triples(
                engine, catalog, _digest_batch(datasets[0])
            )
            digests[1] = _digest(_store_document(engine, catalog))
        assert tuple(digests) == _BUILD_DIGESTS[config]
