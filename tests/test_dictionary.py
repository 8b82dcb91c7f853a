"""Unit and property tests for the string dictionary."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.dictionary import Dictionary, FrozenDictionary
from repro.errors import DictionaryError


class TestDictionary:
    def test_encode_assigns_dense_oids_in_first_seen_order(self):
        d = Dictionary()
        assert d.encode("<type>") == 0
        assert d.encode("<Text>") == 1
        assert d.encode("<Date>") == 2

    def test_encode_is_idempotent(self):
        d = Dictionary()
        assert d.encode("x") == d.encode("x") == 0
        assert len(d) == 1

    def test_decode_round_trip(self):
        d = Dictionary()
        oid = d.encode("<origin>")
        assert d.decode(oid) == "<origin>"

    def test_init_from_iterable(self):
        d = Dictionary(["a", "b", "a"])
        assert len(d) == 2
        assert list(d) == ["a", "b"]

    def test_encode_many_and_decode_many(self):
        d = Dictionary()
        oids = d.encode_many(["a", "b", "a", "c"])
        assert oids.tolist() == [0, 1, 0, 2]
        assert d.decode_many(oids) == ["a", "b", "a", "c"]

    def test_lookup_unknown_raises(self):
        d = Dictionary()
        with pytest.raises(DictionaryError):
            d.lookup("missing")

    def test_lookup_or_none(self):
        d = Dictionary(["present"])
        assert d.lookup_or_none("present") == 0
        assert d.lookup_or_none("missing") is None

    def test_decode_out_of_range_raises(self):
        d = Dictionary(["only"])
        with pytest.raises(DictionaryError):
            d.decode(5)
        with pytest.raises(DictionaryError):
            d.decode(-1)

    def test_encode_rejects_non_strings(self):
        d = Dictionary()
        with pytest.raises(DictionaryError):
            d.encode(42)

    def test_contains(self):
        d = Dictionary(["here"])
        assert "here" in d
        assert "gone" not in d

    def test_byte_size_counts_utf8_plus_slot(self):
        d = Dictionary(["ab"])
        assert d.byte_size() == 2 + 8

    def test_iteration_in_oid_order(self):
        d = Dictionary()
        for s in ["z", "a", "m"]:
            d.encode(s)
        assert list(d) == ["z", "a", "m"]


class TestFrozenDictionary:
    def test_freeze_snapshot_is_independent(self):
        d = Dictionary(["a"])
        frozen = d.freeze()
        d.encode("b")
        assert len(frozen) == 1
        assert len(d) == 2

    def test_frozen_has_no_encode(self):
        frozen = Dictionary(["a"]).freeze()
        assert not hasattr(frozen, "encode")

    def test_frozen_lookup_and_decode(self):
        frozen = Dictionary(["a", "b"]).freeze()
        assert frozen.lookup("b") == 1
        assert frozen.decode(0) == "a"
        assert frozen.lookup_or_none("zzz") is None
        with pytest.raises(DictionaryError):
            frozen.lookup("zzz")
        with pytest.raises(DictionaryError):
            frozen.decode(99)

    def test_frozen_type(self):
        assert isinstance(Dictionary().freeze(), FrozenDictionary)

    def test_frozen_byte_size_matches_source(self):
        d = Dictionary(["hello", "world"])
        assert d.freeze().byte_size() == d.byte_size()


class TestDecodeMany:
    """One ``decode_many`` behind both dictionaries: an oid array and a
    list of oids decode alike and fail alike."""

    @pytest.fixture(params=["mutable", "frozen"])
    def dictionary(self, request):
        d = Dictionary(["a", "b", "c"])
        return d if request.param == "mutable" else d.freeze()

    @pytest.mark.parametrize("as_array", [False, True])
    def test_decodes_arrays_and_lists(self, dictionary, as_array):
        oids = [2, 0, 2, 1]
        if as_array:
            oids = np.array(oids, dtype=np.int64)
        assert dictionary.decode_many(oids) == ["c", "a", "c", "b"]
        assert dictionary.decode_many(oids[:0]) == []

    @pytest.mark.parametrize("as_array", [False, True])
    @pytest.mark.parametrize("oids, bad", [
        ([0, -1, 1], -1), ([0, 3, 1], 3), ([2, 3, -1, 9], 3),
    ])
    def test_an_oid_outside_the_table_raises(self, dictionary, as_array,
                                             oids, bad):
        """MISSING_VALUE (-1) must not wrap to the last string, nor may
        the table's length pass, and the message names the first bad oid,
        as the per-oid loop did."""
        if as_array:
            oids = np.array(oids, dtype=np.int64)
        with pytest.raises(DictionaryError) as raised:
            dictionary.decode_many(oids)
        assert str(raised.value) == f"oid out of range: {bad}"

    def test_decodes_any_iterable(self, dictionary):
        assert dictionary.decode_many(iter((1, 1))) == ["b", "b"]


@given(st.lists(st.text(min_size=0, max_size=30)))
def test_property_round_trip(strings):
    """encode/decode round-trips for arbitrary strings."""
    d = Dictionary()
    oids = [d.encode(s) for s in strings]
    assert [d.decode(o) for o in oids] == strings


@given(st.lists(st.text(max_size=20), unique=True))
def test_property_oids_are_dense_and_ordered(strings):
    d = Dictionary()
    oids = [d.encode(s) for s in strings]
    assert oids == list(range(len(strings)))
    assert list(d) == strings


@given(st.lists(st.text(max_size=20)))
def test_property_length_counts_distinct(strings):
    d = Dictionary()
    for s in strings:
        d.encode(s)
    assert len(d) == len(set(strings))
