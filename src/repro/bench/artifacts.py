"""Content-addressed on-disk cache for benchmark artifacts.

The experiment sweeps (Figures 6/7, the ``benchmarks/`` suite) regenerate
the same Barton scale model and rebuild the same stores over and over.
Every one of those artifacts is a pure function of its generator parameters
and a seed, so this module caches them on disk under a key derived from the
parameters — a cache hit returns an object byte-identical to a fresh build.

Layout::

    <root>/<kind>/<sha256-of-params>.pkl

Each entry is a small header (the SHA-256 of the payload, hex, one line)
followed by the pickled payload.  A corrupt entry — truncated file, flipped
bits, unpicklable body — fails the checksum or the load and is silently
rebuilt, never crashed on.

Environment knobs:

* ``REPRO_CACHE_DIR`` — cache root (default ``~/.cache/repro``),
* ``REPRO_CACHE_MAX_BYTES`` — eviction threshold (default 512 MB; oldest
  entries by access time are evicted after every write),
* ``REPRO_CACHE_DISABLE=1`` — bypass the cache entirely (every lookup
  builds).

Keys include ``SCHEMA_VERSION``: bump it whenever the pickled layout of a
cached artifact changes, and every old entry is invalidated at once.
"""

import hashlib
import json
import os
import pathlib
import pickle

from repro.observe.log import get_logger
from repro.observe.race import guard_lock

log = get_logger("bench.artifacts")

#: Bump to invalidate every existing cache entry (e.g. when the pickled
#: layout of datasets or store payloads changes).
SCHEMA_VERSION = 1

_DEFAULT_MAX_BYTES = 512 * 1024 * 1024


def default_cache_root():
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return pathlib.Path(env)
    return pathlib.Path.home() / ".cache" / "repro"


def cache_disabled():
    return os.environ.get("REPRO_CACHE_DISABLE", "") not in ("", "0")


class ArtifactCache:
    """Content-addressed pickle cache keyed by build parameters."""

    def __init__(self, root=None, max_bytes=None, schema=SCHEMA_VERSION):
        self.root = pathlib.Path(root) if root else default_cache_root()
        if max_bytes is None:
            max_bytes = int(
                os.environ.get("REPRO_CACHE_MAX_BYTES", _DEFAULT_MAX_BYTES)
            )
        self.max_bytes = max_bytes
        self.schema = schema
        #: Hit/miss/corrupt counters for observability and tests.
        self.hits = 0
        self.misses = 0
        self.corrupt = 0

    # ------------------------------------------------------------------
    # keys
    # ------------------------------------------------------------------

    def key(self, kind, params):
        """Content address of an artifact: schema + kind + params.

        *params* must be JSON-serializable; dict keys are sorted, so two
        parameter dicts with equal content address the same entry.
        """
        document = {"schema": self.schema, "kind": kind, "params": params}
        canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def path(self, kind, params):
        return self.root / kind / f"{self.key(kind, params)}.pkl"

    # ------------------------------------------------------------------
    # lookup / build
    # ------------------------------------------------------------------

    def get_or_build(self, kind, params, build):
        """Return the cached artifact for (kind, params), building on miss.

        *build* is a zero-argument callable producing the artifact.  The
        artifact must be picklable; the cache never mutates it.
        """
        if cache_disabled():
            return build()
        path = self.path(kind, params)
        value, ok = self._load(path)
        if ok:
            self.hits += 1
            log.debug("cache hit: %s/%s", kind, path.name)
            return value
        self.misses += 1
        value = build()
        try:
            self._store(path, value)
        except OSError as exc:  # unwritable cache must never fail the build
            log.debug("cache write failed for %s: %s", path, exc)
        return value

    def _load(self, path):
        """Read an entry; returns ``(value, ok)``.  Corruption -> not ok."""
        try:
            blob = path.read_bytes()
        except OSError:
            return None, False
        header, sep, body = blob.partition(b"\n")
        if not sep or len(header) != 64:
            self._discard_corrupt(path)
            return None, False
        if hashlib.sha256(body).hexdigest().encode("ascii") != header:
            self._discard_corrupt(path)
            return None, False
        try:
            value = pickle.loads(body)
        except Exception:
            self._discard_corrupt(path)
            return None, False
        try:  # refresh access time for LRU eviction
            os.utime(path)
        except OSError:
            pass
        return value, True

    def _discard_corrupt(self, path):
        self.corrupt += 1
        log.warning("discarding corrupt cache entry %s", path)
        try:
            path.unlink()
        except OSError:
            pass

    def _store(self, path, value):
        body = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        header = hashlib.sha256(body).hexdigest().encode("ascii")
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + f".tmp{os.getpid()}")
        tmp.write_bytes(header + b"\n" + body)
        os.replace(tmp, path)  # atomic: readers never see partial entries
        self.prune()

    # ------------------------------------------------------------------
    # eviction
    # ------------------------------------------------------------------

    def entries(self):
        """Every cache entry as ``(path, nbytes, atime)``."""
        found = []
        if not self.root.exists():
            return found
        for path in self.root.glob("*/*.pkl"):
            try:
                stat = path.stat()
            except OSError:
                continue
            found.append((path, stat.st_size, stat.st_atime))
        return found

    def total_bytes(self):
        return sum(nbytes for _, nbytes, _ in self.entries())

    def prune(self, max_bytes=None):
        """Evict least-recently-used entries above the size threshold."""
        limit = self.max_bytes if max_bytes is None else max_bytes
        entries = sorted(self.entries(), key=lambda e: e[2])  # oldest first
        total = sum(nbytes for _, nbytes, _ in entries)
        evicted = 0
        for path, nbytes, _ in entries:
            if total <= limit:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= nbytes
            evicted += 1
        if evicted:
            log.debug("evicted %d cache entries", evicted)
        return evicted

    def clear(self):
        for path, _, _ in self.entries():
            try:
                path.unlink()
            except OSError:
                pass


#: Process-wide default cache, shared by the CLI, the benchmark fixtures and
#: the scheduler's worker processes.  Lazily created under a lock so two
#: server threads racing the first touch cannot build (and half-lose)
#: separate caches.
_DEFAULT_CACHE_LOCK = guard_lock("bench.artifacts._DEFAULT_CACHE")
_DEFAULT_CACHE = None  # guarded-by: _DEFAULT_CACHE_LOCK


def default_cache():
    global _DEFAULT_CACHE
    with _DEFAULT_CACHE_LOCK:
        if _DEFAULT_CACHE is None:
            _DEFAULT_CACHE = ArtifactCache()
        return _DEFAULT_CACHE


def cache_stats():
    """Hit/miss/corrupt counters of the process-wide default cache.

    Zeroes when the cache was never touched — the counters live on the
    instance, so this never *creates* the cache just to report on it.
    """
    cache = _DEFAULT_CACHE
    if cache is None:
        return {"hits": 0, "misses": 0, "corrupt": 0}
    return {"hits": cache.hits, "misses": cache.misses,
            "corrupt": cache.corrupt}


# ----------------------------------------------------------------------
# artifact builders
# ----------------------------------------------------------------------

def dataset_params(config):
    """JSON-safe cache parameters of a :class:`BartonConfig`."""
    from dataclasses import asdict

    return asdict(config)


def cached_dataset(config=None, cache=None, **overrides):
    """A :func:`generate_barton` dataset, cached on disk by its config."""
    from repro.data.barton import BartonConfig, generate_barton

    if config is None:
        config = BartonConfig(**overrides)
    elif overrides:
        raise ValueError("pass either a config or keyword overrides, not both")
    cache = cache or default_cache()
    return cache.get_or_build(
        "dataset", dataset_params(config), lambda: generate_barton(config)
    )


def dataset_cache_key(dataset):
    """JSON-safe content key of a dataset-like object, or ``None``.

    A dataset is cacheable when it exposes either ``cache_params`` (an
    explicit key, used by derived datasets such as the figure-7 property
    splits) or a generator ``config``.  ``None`` means "uncacheable" —
    callers must fall back to building uncached.
    """
    params = getattr(dataset, "cache_params", None)
    if params is not None:
        return params() if callable(params) else params
    config = getattr(dataset, "config", None)
    if config is not None:
        return dataset_params(config)
    return None


def cached_store_payload(dataset, scheme, clustering="PSO",
                         with_indexes=False, cache=None):
    """A prepared store payload for *dataset*, cached by physical design.

    The payload (see :mod:`repro.storage.payload`) holds the expensive half
    of a deploy — dictionary encoding plus load sorting — so a cache hit
    reduces deployment to table creation.  Uncacheable datasets (no content
    key) are prepared fresh, as is every payload when *cache* is ``False``.
    """
    from repro.storage import prepare_triple_payload, prepare_vertical_payload

    def build():
        if scheme == "triple":
            return prepare_triple_payload(
                dataset.triples, dataset.interesting_properties,
                clustering=clustering, with_indexes=with_indexes,
            )
        return prepare_vertical_payload(
            dataset.triples, dataset.interesting_properties,
            with_indexes=with_indexes,
        )

    key = dataset_cache_key(dataset)
    if key is None or cache is False:
        return build()
    cache = cache or default_cache()
    params = {
        "dataset": key,
        "scheme": scheme,
        "clustering": clustering.upper() if scheme == "triple" else "SO",
        "with_indexes": bool(with_indexes),
    }
    return cache.get_or_build("store", params, build)


def cached_split(dataset, target, seed=0, protected=(),
                 max_subproperties=10, cache=None):
    """The figure-7 property-split triple list, cached per sweep point.

    Falls back to an uncached build when the dataset carries no generator
    config to derive a content key from.
    """
    from repro.data.splitting import split_properties

    def build():
        return split_properties(
            dataset.triples, target, seed=seed, protected=protected,
            max_subproperties=max_subproperties,
        )

    config = getattr(dataset, "config", None)
    if config is None:
        return build()
    cache = cache or default_cache()
    params = {
        "dataset": dataset_params(config),
        "target": target,
        "seed": seed,
        "protected": sorted(protected),
        "max_subproperties": max_subproperties,
    }
    return cache.get_or_build("split", params, build)
