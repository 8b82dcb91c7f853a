"""Property-based roundtrip tests for the columnar compression codecs.

Every codec must satisfy ``decode(encode(values)) == values`` exactly, its
advertised byte layout must stay inside ``nbytes`` (the simulated disk
charges for exactly those ranges), and the run-at-a-time helpers must
reproduce decoded slices — the identities the operate-on-compressed
kernels rely on.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import StorageError
from repro.observe import counters
from repro.storage.compress import (
    CODEC_ORDER,
    DELTA_BLOCK,
    HEADER_BYTES,
    RUN_BYTES,
    VALUE_BYTES,
    CompressionConfig,
    CompressionCounts,
    DeltaColumn,
    DictColumn,
    RleColumn,
    choose_codec,
    column_stats,
    note_column,
)

CODEC_CLASSES = (RleColumn, DeltaColumn, DictColumn)

# Bounded so bit-pack widths stay legal (<= MAX_PACK_WIDTH) — the picker
# enforces that bound in production; direct codec construction must get
# eligible input.
_values = st.integers(min_value=-2**50, max_value=2**50)

#: Arbitrary columns: possibly unsorted, with duplicates.
columns = st.lists(_values, max_size=400).map(
    lambda xs: np.asarray(xs, dtype=np.int64)
)

#: Sorted columns with run structure — the shape the VP scheme stores.
run_columns = st.lists(
    st.tuples(_values, st.integers(min_value=1, max_value=20)),
    max_size=40,
).map(
    lambda runs: np.repeat(
        np.asarray(sorted(v for v, _ in runs), dtype=np.int64),
        np.asarray(
            [n for _, n in sorted(runs, key=lambda r: r[0])], dtype=np.int64
        ),
    )
)


def _check_byte_ranges(encoding, lo, hi):
    """Every advertised range must be non-empty and inside the encoding."""
    ranges = encoding.byte_ranges(lo, hi)
    if hi <= lo or encoding.n_values == 0:
        assert ranges == []
        return
    for offset, length in ranges:
        assert length > 0
        assert 0 <= offset
        assert offset + length <= encoding.nbytes, (offset, length)


class TestRoundtrip:
    @pytest.mark.parametrize("cls", CODEC_CLASSES)
    @given(values=columns)
    def test_decode_identity(self, cls, values):
        encoding = cls(values)
        np.testing.assert_array_equal(encoding.decode(), values)
        assert encoding.n_values == len(values)
        assert encoding.logical_nbytes == len(values) * VALUE_BYTES

    @pytest.mark.parametrize("cls", CODEC_CLASSES)
    @given(values=run_columns)
    def test_decode_identity_sorted_runs(self, cls, values):
        np.testing.assert_array_equal(cls(values).decode(), values)

    @pytest.mark.parametrize("cls", CODEC_CLASSES)
    def test_empty_column(self, cls):
        encoding = cls(np.empty(0, dtype=np.int64))
        assert encoding.n_values == 0
        assert len(encoding.decode()) == 0
        assert encoding.byte_ranges(0, 0) == []

    @pytest.mark.parametrize("cls", CODEC_CLASSES)
    def test_single_run(self, cls):
        values = np.full(500, 7, dtype=np.int64)
        encoding = cls(values)
        np.testing.assert_array_equal(encoding.decode(), values)
        if cls is RleColumn:
            assert encoding.n_runs == 1
            assert encoding.nbytes == RUN_BYTES

    @pytest.mark.parametrize("cls", CODEC_CLASSES)
    def test_all_distinct(self, cls):
        values = np.arange(300, dtype=np.int64) * 3 + 11
        encoding = cls(values)
        np.testing.assert_array_equal(encoding.decode(), values)
        if cls is RleColumn:
            assert encoding.n_runs == 300


class TestByteLayout:
    @pytest.mark.parametrize("cls", CODEC_CLASSES)
    @given(values=columns, data=st.data())
    def test_byte_ranges_within_encoding(self, cls, values, data):
        encoding = cls(values)
        n = len(values)
        lo = data.draw(st.integers(min_value=0, max_value=max(n, 1)))
        hi = data.draw(st.integers(min_value=0, max_value=max(n, 1)))
        _check_byte_ranges(encoding, lo, hi)
        _check_byte_ranges(encoding, 0, n)

    @pytest.mark.parametrize("cls", CODEC_CLASSES)
    @given(values=columns)
    def test_probe_and_pages_within_encoding(self, cls, values):
        if len(values) == 0:
            return
        encoding = cls(values)
        page_size = 64
        upper = max(
            1, (max(encoding.nbytes, HEADER_BYTES) + page_size - 1)
            // page_size
        )
        rows = np.arange(len(values), dtype=np.int64)
        pages = encoding.pages_for_rows(rows, page_size)
        assert len(pages) == len(np.unique(pages))
        assert (pages >= 0).all() and (pages < upper).all()
        for row in (0, len(values) // 2, len(values) - 1):
            assert 0 <= encoding.probe_byte(row) <= encoding.nbytes

    @given(values=run_columns, data=st.data())
    def test_rle_runs_overlapping_is_decoded_slice(self, values, data):
        encoding = RleColumn(values)
        n = len(values)
        lo = data.draw(st.integers(min_value=0, max_value=max(n, 1)))
        hi = data.draw(st.integers(min_value=lo, max_value=max(n, 1)))
        run_values, run_counts = encoding.runs_overlapping(lo, hi)
        np.testing.assert_array_equal(
            np.repeat(run_values, run_counts), values[lo:hi]
        )

    @given(values=columns)
    def test_delta_blocks_match_layout(self, values):
        encoding = DeltaColumn(values)
        n = len(values)
        assert encoding.n_blocks == (n + DELTA_BLOCK - 1) // DELTA_BLOCK
        assert encoding.nbytes >= HEADER_BYTES + encoding.bases.nbytes


class TestPicker:
    def test_empty_column_stays_raw(self):
        assert choose_codec(np.empty(0, dtype=np.int64)) is None

    def test_sorted_low_cardinality_picks_rle(self):
        values = np.repeat(np.arange(10, dtype=np.int64), 1000)
        encoding = choose_codec(values)
        assert encoding is not None and encoding.codec == "rle"

    def test_dense_sequence_picks_delta(self):
        encoding = choose_codec(np.arange(1000, dtype=np.int64))
        assert encoding is not None and encoding.codec == "delta"

    def test_wide_random_values_stay_raw_or_beat_raw(self):
        rng = np.random.default_rng(7)
        values = rng.integers(-2**56, 2**56, size=200, dtype=np.int64)
        encoding = choose_codec(values)
        if encoding is not None:
            assert encoding.nbytes < len(values) * VALUE_BYTES

    @given(values=columns)
    def test_choice_always_beats_raw_and_roundtrips(self, values):
        encoding = choose_codec(values)
        if encoding is None:
            return
        assert encoding.nbytes < len(values) * VALUE_BYTES
        np.testing.assert_array_equal(encoding.decode(), values)

    @given(values=columns)
    def test_stats_sizes_match_real_encodings(self, values):
        """The picker's closed-form candidate sizes equal the bytes the
        constructors actually produce — the picker never lies."""
        sizes = column_stats(values)["sizes"]
        if len(values) == 0:
            return
        for name, size in sizes.items():
            cls = {"rle": RleColumn, "delta": DeltaColumn,
                   "dict": DictColumn}[name]
            assert cls(values).nbytes == size, name


class TestConfig:
    @pytest.mark.parametrize("value", [None, False, "", "off", "none", "0"])
    def test_disabled_settings(self, value):
        assert CompressionConfig.coerce(value) is None

    @pytest.mark.parametrize("value", [True, "on", "1", "physical"])
    def test_physical_settings(self, value):
        assert CompressionConfig.coerce(value) == CompressionConfig()

    def test_logical_setting(self):
        # Compression is off or on; the cost-free third state is gone.
        with pytest.raises(StorageError, match="off or physical"):
            CompressionConfig.coerce("logical")

    def test_config_roundtrips_through_coerce(self):
        config = CompressionConfig()
        assert CompressionConfig.coerce(config) is config

    @pytest.mark.parametrize("value", ["zstd", 3.5, ["rle"]])
    def test_invalid_settings_raise(self, value):
        with pytest.raises(StorageError):
            CompressionConfig.coerce(value)

    def test_invalid_cost_mode_raises(self):
        # A settings dict is no setting: compression is off or on.
        with pytest.raises(StorageError, match="cannot interpret"):
            CompressionConfig.coerce({"cost_mode": "physical"})


class TestCounters:
    def test_note_column_and_scan_arithmetic(self):
        counters.reset("compression")
        try:
            values = np.repeat(np.arange(4, dtype=np.int64), 100)
            encoding = choose_codec(values)
            note_column(encoding, len(values))
            note_column(None, 10)
            reads = CompressionCounts()
            reads.note_scan(64, 512)
            reads.note_runs_skipped(96)
            reads.note_runs_skipped(0)   # no-op
            assert counters.snapshot("compression")["bytes_scanned"] == 0
            reads.flush()
            reads.flush()                # nothing new: no second add
            stats = counters.snapshot("compression")
            assert stats["columns_compressed"] == 1
            assert stats["columns_raw"] == 1
            assert stats["logical_bytes"] == 400 * 8 + 10 * 8
            assert stats["compressed_bytes"] == encoding.nbytes + 10 * 8
            assert stats["bytes_scanned"] == 64
            assert stats["logical_bytes_scanned"] == 512
            assert stats["runs_skipped"] == 96
            assert stats["compressed_reads"] == 1
        finally:
            counters.reset("compression")
        assert counters.snapshot("compression")["logical_bytes"] == 0
