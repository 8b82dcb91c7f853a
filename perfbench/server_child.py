"""The query server of the ``serve_http`` workload, in its own process.

Started by :class:`perfbench.workloads.ServeHttp` with the scrubbed
environment; prints ``READY <url>`` once it accepts requests and drains
and stops on SIGTERM.
"""

import argparse
import os
import signal
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--triples", type=int, required=True)
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import repro.api as api
    from repro.data import generate_barton
    from repro.server import serve

    dataset = generate_barton(n_triples=args.triples, seed=args.seed)
    connection = api.connect(
        triples=dataset.triples, engine="column", scheme="triple",
        interesting_properties=dataset.interesting_properties,
    )
    stop = threading.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: stop.set())
    parent = os.getppid()
    with serve(connection, port=0, workers=2, queue_depth=64,
               background=True) as server:
        print("READY", server.address, flush=True)
        # Also stop when the benchmark process is gone (killed, timed
        # out): an orphaned server must not outlive its run.
        while not stop.wait(1.0) and os.getppid() == parent:
            pass


if __name__ == "__main__":
    main()
