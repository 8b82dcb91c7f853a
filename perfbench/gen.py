"""Seeded input generation — the only place randomness enters perfbench.

The program under test receives texts and triples and nothing else; it
never sees the seed.  This is perfbench's own sampler, deliberately not
``repro.server.replay.WorkloadMix``: a benchmark that borrowed the
program's generator would change whenever the program did.
"""

import hashlib
import json
import random


def rng_for(seed, stream):
    """An independent, reproducible RNG per (seed, stream name)."""
    return random.Random(f"perfbench:{seed}:{stream}")


def zipf_counts(n_items, total, exponent=1.0):
    """Apportion *total* draws over ranks 1..n by Zipf weight.

    Largest-remainder rounding, every rank at least once.  A round built
    from these counts has the *same* mix on every seed — the seed only
    orders it — so a percentile never moves because one seed happened to
    draw more expensive queries than another.
    """
    weights = [1.0 / (rank ** exponent) for rank in range(1, n_items + 1)]
    scale = (total - n_items) / sum(weights)
    exact = [w * scale for w in weights]
    counts = [1 + int(x) for x in exact]
    by_remainder = sorted(range(n_items), key=lambda i: int(exact[i]) - exact[i])
    for i in by_remainder[: total - sum(counts)]:
        counts[i] += 1
    return counts


def shuffled(rng, items):
    items = list(items)
    rng.shuffle(items)
    return items


def ops_digest(ops):
    """Content digest of an op list (ops are JSON-ready dicts)."""
    text = json.dumps(ops, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def rows_digest(rows):
    """Order-insensitive digest of a row set (bag semantics kept)."""
    text = repr(sorted(tuple(row) for row in rows))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
