"""Ablation — the I/O model behind the C-Store findings.

Two knobs of the simulated disk stack are swept:

1. **Request size**: effective read rate of a synchronous reader as the
   per-request chunk grows from 16 KB to 4 MB, on machines A and B.  Small
   chunks are seek-bound and machine-independent (the C-Store regime,
   Figure 5); large chunks approach each machine's sequential bandwidth
   (the MonetDB/DBX scan regime).
2. **Sequential coalescing**: with OS readahead off (the C-Store
   behaviour), the same scan pays a seek per chunk and slows down by an
   order of magnitude at small chunk sizes.
"""

from repro.bench.reporting import format_table
from repro.engine import BufferPool, MACHINE_A, MACHINE_B, QueryClock, SimulatedDisk

MB = 1024 * 1024
SCAN_BYTES = 64 * MB
CHUNKS = (16 * 1024, 64 * 1024, 256 * 1024, 1024 * 1024, 4 * MB)


def chunked_scan_rate(machine, chunk_bytes):
    """One scan issued as synchronous requests of *chunk_bytes* each."""
    disk = SimulatedDisk(page_size=8192)
    clock = QueryClock(machine)
    pool = BufferPool(
        disk, clock, capacity_bytes=256 * MB, max_run_bytes=chunk_bytes,
        sequential_coalescing=False,
    )
    segment = disk.create_segment("scan", SCAN_BYTES)
    pool.read_span(segment, *segment.page_span(0, segment.nbytes))
    return SCAN_BYTES / clock.timing().real_seconds / MB


def page_at_a_time_rate(machine, coalescing):
    """A reader touching one 8 KB page per call (B+tree leaf chains)."""
    disk = SimulatedDisk(page_size=8192)
    clock = QueryClock(machine)
    pool = BufferPool(
        disk, clock, capacity_bytes=256 * MB,
        sequential_coalescing=coalescing,
    )
    bytes_total = 4 * MB  # enough pages to amortize, small enough to be fast
    segment = disk.create_segment("scan", bytes_total)
    for page in range(segment.num_pages()):
        pool.read_pages(segment, [page])
    return bytes_total / clock.timing().real_seconds / MB


def run_io_ablation():
    rates = {}
    rows = []
    for chunk in CHUNKS:
        row = [f"{chunk // 1024} KB"]
        for machine in (MACHINE_A, MACHINE_B):
            rate = chunked_scan_rate(machine, chunk)
            rates[(chunk, machine.name)] = rate
            row.append(round(rate, 1))
        rows.append(row)
    chunk_table = format_table(
        ["request size", "A", "B"],
        rows,
        title="Ablation: effective read rate (MB/s) vs synchronous request "
              f"size ({SCAN_BYTES // MB} MB sequential scan)",
    )

    page_rows = []
    for machine in (MACHINE_A, MACHINE_B):
        for coalescing in (False, True):
            rate = page_at_a_time_rate(machine, coalescing)
            rates[("page", machine.name, coalescing)] = rate
            page_rows.append(
                [machine.name,
                 "readahead" if coalescing else "sync",
                 round(rate, 1)]
            )
    page_table = format_table(
        ["machine", "mode", "MB/s"],
        page_rows,
        title="Ablation: page-at-a-time reader (8 KB calls) with and "
              "without OS readahead coalescing",
    )
    return chunk_table + "\n\n" + page_table, rates


def test_io_model_ablation(benchmark, publish):
    table, rates = benchmark.pedantic(run_io_ablation, rounds=1, iterations=1)
    publish(("ablation_io_model", table))

    small, large = CHUNKS[0], CHUNKS[-1]

    # Small synchronous requests are machine-independent (seek-bound):
    a_small = rates[(small, "A")]
    b_small = rates[(small, "B")]
    assert b_small / a_small < 1.3
    # ... and exploit only a small fraction of the bandwidth.
    assert a_small < MACHINE_A.read_bandwidth / MB / 10

    # Large requests approach each machine's sequential bandwidth, and the
    # machines now differ by roughly their bandwidth ratio.
    a_large = rates[(large, "A")]
    b_large = rates[(large, "B")]
    assert a_large > MACHINE_A.read_bandwidth / MB * 0.5
    assert b_large / a_large > 2.0

    # Readahead coalescing rescues page-at-a-time readers: sequential
    # single-page calls ride one stream instead of paying a seek each.
    assert (
        rates[("page", "A", True)] > rates[("page", "A", False)] * 10
    )
