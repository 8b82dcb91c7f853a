"""Lightweight columnar compression: RLE, delta + bit-pack, dictionary-domain.

The vertically-partitioned scheme is the ideal compression target: every
``(subj, obj)`` table is sorted on SO and dictionary-coded, so its columns
are long sorted runs of dense integer oids.  This module provides the three
classic lightweight encodings column stores apply to exactly that shape:

* **RLE** (:class:`RleColumn`) — ``(value, run_length)`` pairs, 16 bytes per
  run.  Sorted columns collapse to one run per distinct value, and the
  run arrays double as an *operate-on-compressed* representation: a
  predicate is evaluated once per run, a merge join walks run boundaries,
  and a grouped count is just the run-length vector.
* **Delta + bit-pack** (:class:`DeltaColumn`) — mini-block
  frame-of-reference deltas: per 128-value block a full base value plus
  bit-packed ``delta - dmin``.  Mini-blocks keep random access O(block)
  instead of O(prefix).
* **Dictionary-domain bit-pack** (:class:`DictColumn`) — values are already
  dictionary oids, so ``value - min`` fits in ``bit_length(max - min)``
  bits; fixed-width packing keeps positional access exact.

:func:`choose_codec` sizes every candidate from one O(n) statistics pass
and picks the smallest (``None`` = raw stays best).  Encoded columns keep
the exact byte layout the simulated disk charges for, exposed through
``byte_ranges`` / ``pages_for_rows`` / ``probe_byte`` so the column-store
operators can account compressed I/O without materializing bytes.

Compression is off or on (:class:`CompressionConfig`): an engine without a
config stores raw int64 columns; with one, segments are sized at the
encoded footprint and the operators read compressed byte ranges and
run-skip — the simulated costs show the speedup.  Reports and config
fingerprints name the on state ``"physical"``.
"""

from dataclasses import dataclass

import numpy as np

from repro.errors import StorageError
from repro.observe import counters

#: Uncompressed storage: one int64 per value.
VALUE_BYTES = 8

#: RLE storage: one (value, length) int64 pair per run.
RUN_BYTES = 16

#: Fixed per-column header (codec parameters: base/min + width).
HEADER_BYTES = 16

#: Delta mini-block length (values per block; one 8-byte base per block).
DELTA_BLOCK = 128

#: Widest bit-pack the codecs accept.  Anything wider risks int64 overflow
#: in range arithmetic and could not beat raw storage anyway.
MAX_PACK_WIDTH = 57

#: Codec priority when candidate sizes tie.
CODEC_ORDER = ("rle", "delta", "dict")


@dataclass(frozen=True)
class CompressionConfig:
    """Column-store compression settings: having one means compression is
    on.  ``codecs`` limits which encodings the picker may choose."""

    codecs: tuple = CODEC_ORDER

    def __post_init__(self):
        unknown = [c for c in self.codecs if c not in CODEC_ORDER]
        if unknown:
            raise StorageError(
                f"unknown codecs {unknown}; expected a subset of {CODEC_ORDER}"
            )

    @classmethod
    def coerce(cls, value):
        """Normalize user-facing compression settings to a config or None.

        Accepts ``None``/``False``/``"off"`` (disabled), ``True``/``"on"``/
        ``"physical"`` (enabled), a ``{"codecs": ...}`` dict, or an
        existing config.
        """
        if value is None or value is False:
            return None
        if isinstance(value, cls):
            return value
        if value is True:
            return cls()
        if isinstance(value, str):
            mode = value.strip().lower()
            if mode in ("", "off", "none", "false", "0"):
                return None
            if mode in ("on", "true", "1", "physical"):
                return cls()
            raise StorageError(
                f"unknown compression setting {value!r}; expected "
                "off or physical"
            )
        if isinstance(value, dict):
            try:
                return cls(**value)
            except TypeError:
                raise StorageError(
                    f"unknown compression settings {sorted(value)}; "
                    "expected 'codecs'"
                ) from None
        raise StorageError(
            f"cannot interpret compression setting {value!r}"
        )


# ---------------------------------------------------------------------------
# process-wide counters: the ``compression`` group of repro.observe.counters
# ---------------------------------------------------------------------------

_COUNTERS = counters.declare(
    "compression", columns_compressed=0, columns_raw=0, logical_bytes=0,
    compressed_bytes=0, bytes_scanned=0, logical_bytes_scanned=0,
    runs_skipped=0, compressed_reads=0,
)


def note_column(encoding, n_values):
    """Account one encoded (or raw-kept) column at table-build time."""
    logical = n_values * VALUE_BYTES
    if encoding is None:
        _COUNTERS.add(0, 1, logical, logical, 0, 0, 0, 0)
    else:
        _COUNTERS.add(1, 0, logical, encoding.nbytes, 0, 0, 0, 0)


class CompressionCounts:
    """One engine's read-time ``compression`` counters (the last four, in
    order) in a plain list; :meth:`flush` publishes them in one ``add``
    per measured run (``EngineHost.run``), not one per read."""

    __slots__ = ("counts",)

    def __init__(self):
        self.counts = [0, 0, 0, 0]

    def note_scan(self, compressed_bytes, logical_bytes):
        """Account one compressed read (operators call this per fetch)."""
        self.counts[0] += int(compressed_bytes)
        self.counts[1] += int(logical_bytes)
        self.counts[3] += 1

    def note_runs_skipped(self, n):
        """Account rows whose per-row work collapsed into per-run work."""
        self.counts[2] += int(n)

    def flush(self):
        """Publish the counts noted since the last flush."""
        if any(self.counts):
            _COUNTERS.add(0, 0, 0, 0, *self.counts)
            self.counts = [0, 0, 0, 0]


# ---------------------------------------------------------------------------
# bit packing
# ---------------------------------------------------------------------------

def packed_nbytes(n, width):
    """Bytes needed for *n* values at *width* bits each."""
    return (n * width + 7) // 8


def _pack_bits(unsigned, width):
    """Pack non-negative values (< 2**width) into a dense uint8 stream."""
    if width == 0 or len(unsigned) == 0:
        return np.empty(0, dtype=np.uint8)
    shifts = np.arange(width, dtype=np.uint64)
    bits = ((unsigned[:, None] >> shifts) & np.uint64(1)).astype(np.uint8)
    return np.packbits(bits.reshape(-1))


def _unpack_bits(packed, n, width):
    """Inverse of :func:`_pack_bits`; returns a uint64 array of length n."""
    if width == 0 or n == 0:
        return np.zeros(n, dtype=np.uint64)
    bits = np.unpackbits(packed, count=n * width).astype(np.uint64)
    shifts = np.arange(width, dtype=np.uint64)
    return (bits.reshape(n, width) << shifts).sum(axis=1, dtype=np.uint64)


# ---------------------------------------------------------------------------
# codecs
# ---------------------------------------------------------------------------

class RleColumn:
    """Run-length encoding: 16 bytes per maximal run.

    Beyond compression, the run arrays are the operate-on-compressed
    representation: ``run_values`` / ``run_lengths`` / ``run_starts`` let
    operators evaluate predicates per run, join on run boundaries, and
    count groups by summing lengths.
    """

    codec = "rle"

    __slots__ = ("n_values", "run_values", "run_lengths", "run_starts",
                 "nbytes")

    def __init__(self, values):
        values = np.ascontiguousarray(values, dtype=np.int64)
        n = len(values)
        if n:
            starts = np.flatnonzero(
                np.concatenate(([True], values[1:] != values[:-1]))
            ).astype(np.int64)
            ends = np.concatenate((starts[1:], [n])).astype(np.int64)
            self.run_values = values[starts].copy()
            self.run_lengths = ends - starts
            self.run_starts = starts
        else:
            self.run_values = np.empty(0, dtype=np.int64)
            self.run_lengths = np.empty(0, dtype=np.int64)
            self.run_starts = np.empty(0, dtype=np.int64)
        self.n_values = n
        self.nbytes = RUN_BYTES * len(self.run_starts)

    @property
    def n_runs(self):
        return len(self.run_starts)

    @property
    def logical_nbytes(self):
        return self.n_values * VALUE_BYTES

    def decode(self):
        return np.repeat(self.run_values, self.run_lengths)

    def run_index(self, row):
        """Index of the run containing *row*."""
        return int(
            np.searchsorted(self.run_starts, row, side="right") - 1
        )

    def probe_byte(self, row):
        """Byte offset a point probe of *row* touches."""
        return self.run_index(row) * RUN_BYTES

    def byte_ranges(self, lo, hi):
        """Contiguous byte ranges covering rows ``[lo, hi)``."""
        if hi <= lo or self.n_values == 0:
            return []
        first = self.run_index(lo)
        last = self.run_index(hi - 1)
        return [(first * RUN_BYTES, (last - first + 1) * RUN_BYTES)]

    def runs_overlapping(self, lo, hi):
        """``(values, counts)`` of the runs clipped to rows ``[lo, hi)``.

        ``np.repeat(values, counts)`` equals the decoded slice — the
        identity the run-at-a-time predicate kernels rely on.
        """
        if hi <= lo or self.n_values == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        first = self.run_index(lo)
        last = self.run_index(hi - 1)
        starts = np.maximum(self.run_starts[first:last + 1], lo)
        ends = np.minimum(
            self.run_starts[first:last + 1] + self.run_lengths[first:last + 1],
            hi,
        )
        return self.run_values[first:last + 1], ends - starts

    def pages_for_rows(self, positions, page_size):
        """Sorted unique page indices a positional fetch touches."""
        runs = np.searchsorted(self.run_starts, positions, side="right") - 1
        first = runs * RUN_BYTES // page_size
        last = (runs * RUN_BYTES + RUN_BYTES - 1) // page_size
        return np.unique(np.concatenate((first, last)))


class DeltaColumn:
    """Mini-block delta encoding with bit-packed residuals.

    Per :data:`DELTA_BLOCK` values: one full 8-byte base, then
    ``delta - dmin`` packed at a global width.  Block-local deltas mean
    decoding (and therefore positional access) touches one block, not the
    whole prefix.
    """

    codec = "delta"

    __slots__ = ("n_values", "dmin", "width", "bases", "nbytes", "_packed")

    def __init__(self, values):
        values = np.ascontiguousarray(values, dtype=np.int64)
        n = len(values)
        self.n_values = n
        self.bases = values[::DELTA_BLOCK].copy()
        deltas = np.zeros(n, dtype=np.int64)
        if n > 1:
            deltas[1:] = values[1:] - values[:-1]
        deltas[::DELTA_BLOCK] = 0
        self.dmin = int(deltas.min()) if n else 0
        spread = (int(deltas.max()) - self.dmin) if n else 0
        self.width = spread.bit_length()
        self._packed = _pack_bits(
            (deltas - self.dmin).astype(np.uint64), self.width
        )
        self.nbytes = (
            HEADER_BYTES + self.bases.nbytes + packed_nbytes(n, self.width)
        )

    @property
    def n_blocks(self):
        return len(self.bases)

    @property
    def logical_nbytes(self):
        return self.n_values * VALUE_BYTES

    def decode(self):
        n = self.n_values
        if n == 0:
            return np.empty(0, dtype=np.int64)
        deltas = _unpack_bits(self._packed, n, self.width).astype(np.int64)
        deltas += self.dmin
        deltas[::DELTA_BLOCK] = 0
        prefix = np.cumsum(deltas)
        block_starts = np.arange(0, n, DELTA_BLOCK, dtype=np.int64)
        lengths = np.diff(np.concatenate((block_starts, [n])))
        return prefix + np.repeat(self.bases - prefix[block_starts], lengths)

    def _packed_offset(self):
        return HEADER_BYTES + self.bases.nbytes

    def probe_byte(self, row):
        # A point probe lands on the row's block base entry.
        return HEADER_BYTES + (row // DELTA_BLOCK) * VALUE_BYTES

    def byte_ranges(self, lo, hi):
        if hi <= lo or self.n_values == 0:
            return []
        first_block = lo // DELTA_BLOCK
        last_block = (hi - 1) // DELTA_BLOCK
        ranges = [(
            HEADER_BYTES + first_block * VALUE_BYTES,
            (last_block - first_block + 1) * VALUE_BYTES,
        )]
        if self.width:
            packed0 = self._packed_offset()
            first_row = first_block * DELTA_BLOCK
            last_row = min((last_block + 1) * DELTA_BLOCK, self.n_values)
            start = packed0 + first_row * self.width // 8
            end = packed0 + (last_row * self.width + 7) // 8
            ranges.append((start, end - start))
        return ranges

    def pages_for_rows(self, positions, page_size):
        blocks = np.unique(positions // DELTA_BLOCK)
        parts = [(HEADER_BYTES + blocks * VALUE_BYTES) // page_size]
        if self.width:
            # A block's packed bytes (<= DELTA_BLOCK * MAX_PACK_WIDTH / 8)
            # span at most two pages: first and last byte cover the range.
            packed0 = self._packed_offset()
            first_rows = blocks * DELTA_BLOCK
            last_rows = np.minimum(
                (blocks + 1) * DELTA_BLOCK, self.n_values
            )
            parts.append(
                (packed0 + first_rows * self.width // 8) // page_size
            )
            parts.append(
                (packed0 + (last_rows * self.width + 7) // 8 - 1) // page_size
            )
        return np.unique(np.concatenate(parts))


class DictColumn:
    """Dictionary-domain bit-pack: fixed-width ``value - min``.

    Values are dictionary oids already, so the column's own value range is
    its domain; fixed width keeps positional byte offsets exact.
    """

    codec = "dict"

    __slots__ = ("n_values", "vmin", "width", "nbytes", "_packed")

    def __init__(self, values):
        values = np.ascontiguousarray(values, dtype=np.int64)
        n = len(values)
        self.n_values = n
        self.vmin = int(values.min()) if n else 0
        spread = (int(values.max()) - self.vmin) if n else 0
        self.width = spread.bit_length()
        self._packed = _pack_bits(
            (values - self.vmin).astype(np.uint64), self.width
        )
        self.nbytes = HEADER_BYTES + packed_nbytes(n, self.width)

    @property
    def logical_nbytes(self):
        return self.n_values * VALUE_BYTES

    def decode(self):
        unsigned = _unpack_bits(self._packed, self.n_values, self.width)
        return unsigned.astype(np.int64) + self.vmin

    def probe_byte(self, row):
        return HEADER_BYTES + row * self.width // 8

    def byte_ranges(self, lo, hi):
        if hi <= lo or self.n_values == 0:
            return []
        if self.width == 0:
            return [(0, HEADER_BYTES)]
        start = HEADER_BYTES + lo * self.width // 8
        end = HEADER_BYTES + (hi * self.width + 7) // 8
        return [(start, end - start)]

    def pages_for_rows(self, positions, page_size):
        if self.width == 0:
            return np.zeros(1, dtype=np.int64)
        first = (HEADER_BYTES + positions * self.width // 8) // page_size
        last = (
            HEADER_BYTES + ((positions + 1) * self.width + 7) // 8 - 1
        ) // page_size
        return np.unique(np.concatenate((first, last)))


_CODEC_CLASSES = {
    "rle": RleColumn,
    "delta": DeltaColumn,
    "dict": DictColumn,
}


# ---------------------------------------------------------------------------
# stats-driven picker
# ---------------------------------------------------------------------------

def column_stats(values):
    """One O(n) pass over a column: everything the picker needs.

    Returns ``n``, ``n_runs``, value min/max, and the candidate codec
    sizes in bytes (absent when a codec is ineligible, e.g. a value range
    too wide to bit-pack safely).
    """
    values = np.ascontiguousarray(values, dtype=np.int64)
    n = len(values)
    stats = {"n": n, "raw_bytes": n * VALUE_BYTES, "sizes": {}}
    if n == 0:
        stats.update({"n_runs": 0, "vmin": 0, "vmax": 0})
        return stats
    vmin = int(values.min())
    vmax = int(values.max())
    if n > 1:
        changes = values[1:] != values[:-1]
        n_runs = 1 + int(np.count_nonzero(changes))
    else:
        n_runs = 1
    stats.update({"n_runs": n_runs, "vmin": vmin, "vmax": vmax})
    sizes = stats["sizes"]
    sizes["rle"] = RUN_BYTES * n_runs
    spread = vmax - vmin
    if spread.bit_length() <= MAX_PACK_WIDTH:
        sizes["dict"] = HEADER_BYTES + packed_nbytes(n, spread.bit_length())
    if spread < 2 ** 62:  # deltas cannot overflow int64
        deltas = np.zeros(n, dtype=np.int64)
        if n > 1:
            deltas[1:] = values[1:] - values[:-1]
        deltas[::DELTA_BLOCK] = 0
        dwidth = (int(deltas.max()) - int(deltas.min())).bit_length()
        if dwidth <= MAX_PACK_WIDTH:
            n_blocks = (n + DELTA_BLOCK - 1) // DELTA_BLOCK
            sizes["delta"] = (
                HEADER_BYTES + n_blocks * VALUE_BYTES
                + packed_nbytes(n, dwidth)
            )
    return stats


def choose_codec(values, config=None):
    """Encode *values* with the smallest eligible codec, or ``None``.

    ``None`` means raw storage wins (or the column is empty) — the table
    keeps the plain int64 segment.  Ties resolve in :data:`CODEC_ORDER`.
    """
    config = config or CompressionConfig()
    stats = column_stats(values)
    if stats["n"] == 0:
        return None
    best_name = None
    best_size = stats["raw_bytes"]
    for name in CODEC_ORDER:
        if name not in config.codecs:
            continue
        size = stats["sizes"].get(name)
        if size is not None and size < best_size:
            best_name, best_size = name, size
    if best_name is None:
        return None
    return _CODEC_CLASSES[best_name](values)
