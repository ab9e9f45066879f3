"""Process-wide performance counters for the symbolic IR and caches.

The paper's pitch is that monotonicity analysis is *compile-time only*, so
the analysis itself must be cheap.  This module is the observability layer
for the performance work that keeps it cheap:

* hash-consing intern tables in :mod:`repro.ir.symbols`,
* the memoized canonicalizer in :mod:`repro.ir.simplify`,
* the whole-program analysis/parallelization caches in
  :mod:`repro.analysis.analyzer` and :mod:`repro.parallelizer.driver`.

Counters are plain ints on a module-level :data:`STATS` object (cheap to
bump from hot paths).  Cache owners register each cache by name via
:func:`register_cache` so :func:`snapshot` can report sizes,
:func:`clear_caches` can drop memoized results without import cycles, and
:func:`collect_cache_entries` / :func:`install_cache_entries` can carry
entries computed in one process into another.
The CLI surfaces everything via ``python -m repro --stats <command>``.

**Retention.**  Result caches are bounded :class:`BoundedCache` LRU maps
(default ``DEFAULT_CACHE_MAX_ENTRIES`` entries each) and the hash-consing
intern tables evict their oldest half when they outgrow a per-class cap,
so a long-lived process sweeping many *generated* sources no longer
grows without bound.  ``REPRO_CACHE_MAX_ENTRIES`` overrides the cap
(``0`` restores the old unbounded behavior); evictions are counted in
``cache_evictions`` / ``intern_evictions``.  :func:`clear_caches` /
:func:`clear_all` still release everything at once between batches.  See
the retention section of ``docs/performance.md``.
"""

from __future__ import annotations

import contextlib
import os
import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple


class Counters:
    """Hit/miss counters for every caching layer."""

    __slots__ = (
        "intern_hits",
        "intern_misses",
        "simplify_hits",
        "simplify_misses",
        "expand_hits",
        "expand_misses",
        "affine_hits",
        "affine_misses",
        "analysis_hits",
        "analysis_misses",
        "parallelize_hits",
        "parallelize_misses",
        "nest_hits",
        "nest_misses",
        "nestdec_hits",
        "nestdec_misses",
        "parse_hits",
        "parse_misses",
        "budget_checks",
        "budget_stops",
        "disk_hits",
        "disk_writes",
        "disk_race_retries",
        "cache_evictions",
        "intern_evictions",
        "inspect_passes",
        "inspect_fails",
        "inspect_memo_hits",
    )

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


#: the process-wide counter set
STATS = Counters()


def merge_counts(
    counters: Dict[str, int],
    tiers: Optional[Dict[str, int]] = None,
    fallbacks: Optional[Dict[str, int]] = None,
) -> None:
    """Fold counter deltas from another process into :data:`STATS`.

    The experiment harness runs cells in worker processes; each worker
    snapshots its counters around the cell and ships the delta back over
    the existing reply pipe so ``--stats`` aggregates the whole run even
    with ``REPRO_JOBS > 1``.  Unknown counter names are ignored (version
    skew between parent and worker must not crash the harness).
    """
    for name, value in counters.items():
        if value and name in Counters.__slots__:
            setattr(STATS, name, getattr(STATS, name) + value)
    for name, value in (tiers or {}).items():
        if value:
            TIERS[name] = TIERS.get(name, 0) + value
    for name, value in (fallbacks or {}).items():
        if value:
            FALLBACKS[name] = FALLBACKS.get(name, 0) + value


#: cache entries as they travel between processes: cache name -> the
#: ``(key, value)`` pairs to install
CacheEntries = Dict[str, List[Tuple[Any, Any]]]


@contextlib.contextmanager
def collect_cache_entries(names: Iterable[str]) -> Iterator[CacheEntries]:
    """Collect the entries a piece of work adds to the named caches.

    Yields a dict that, once the ``with`` block exits normally, maps each
    registered name to the ``(key, value)`` pairs the block inserted and
    the cache still holds.  Entries held when the block started —
    inherited from a forked parent, or added by earlier work in the same
    process — are left out, so each entry travels once.  The values are
    the caches' own pristine entries: pickle them across a process
    boundary (which copies), never hand them to a consumer.  Names not
    registered in this process are skipped.

    The harness wraps each worker cell in this and ships the result home
    next to the :func:`merge_counts` deltas, where
    :func:`install_cache_entries` puts them into the parent's caches.
    """
    caches = {name: _CACHES[name] for name in names if name in _CACHES}
    before = {name: set(cache) for name, cache in caches.items()}
    added: CacheEntries = {}
    yield added
    for name, cache in caches.items():
        added[name] = [(k, v) for k, v in cache.items() if k not in before[name]]


def install_cache_entries(entries: CacheEntries) -> int:
    """Install entries collected in another process; return how many were new.

    Each pair goes into the registered cache of that name unless the
    cache already holds its key, in which case the held entry stays —
    the same rule as a disk-tier load, which only fills a memory miss.
    Installing counts no hit and no miss: the work was counted where it
    ran, and its counter delta arrives through :func:`merge_counts`.
    Unknown cache names are ignored (version skew between parent and
    worker must not crash the harness).
    """
    installed = 0
    for name, pairs in entries.items():
        cache = _CACHES.get(name)
        if cache is None:
            continue
        for key, value in pairs:
            if cache.setdefault(key, value) is value:
                installed += 1
    return installed


# ---------------------------------------------------------------------------
# bounded caches (LRU) and intern-table caps
# ---------------------------------------------------------------------------

#: default size cap for each registered result cache (LRU entries)
DEFAULT_CACHE_MAX_ENTRIES = 4096

#: default per-class cap for hash-consing intern tables; far larger than
#: the result-cache cap because nodes are small and shared pervasively
DEFAULT_INTERN_MAX_ENTRIES = 262_144

_cap_memo: Tuple[Optional[str], int, int] = (None, DEFAULT_CACHE_MAX_ENTRIES, DEFAULT_INTERN_MAX_ENTRIES)


def _caps() -> Tuple[int, int]:
    """(result-cache cap, intern-table cap); 0 means unbounded.

    ``REPRO_CACHE_MAX_ENTRIES`` overrides the result-cache cap and scales
    the intern cap with it (``0`` disables both bounds).  The parsed value
    is memoized against the raw env string so the per-insertion check is
    two dict lookups.
    """
    global _cap_memo
    raw = os.environ.get("REPRO_CACHE_MAX_ENTRIES")
    if raw == _cap_memo[0]:
        return _cap_memo[1], _cap_memo[2]
    cache_cap, intern_cap = DEFAULT_CACHE_MAX_ENTRIES, DEFAULT_INTERN_MAX_ENTRIES
    if raw is not None:
        try:
            cache_cap = max(int(raw.strip()), 0)
        except ValueError:
            cache_cap = DEFAULT_CACHE_MAX_ENTRIES
        intern_cap = 0 if cache_cap == 0 else max(cache_cap * 64, DEFAULT_INTERN_MAX_ENTRIES)
    _cap_memo = (raw, cache_cap, intern_cap)
    return cache_cap, intern_cap


def cache_max_entries() -> int:
    """Effective size cap for result caches (0 = unbounded)."""
    return _caps()[0]


def intern_max_entries() -> int:
    """Effective per-class size cap for intern tables (0 = unbounded)."""
    return _caps()[1]


class BoundedCache:
    """Dict-like LRU cache with a process-wide configurable size cap.

    Drop-in for the plain dicts previously backing the memoized result
    caches: ``get``/``__setitem__``/``__contains__``/``clear``/``len``.
    Hits refresh recency; inserting past the cap evicts the least
    recently used entry and bumps ``STATS.cache_evictions``.  The cap is
    re-read from ``REPRO_CACHE_MAX_ENTRIES`` on every insertion, so tests
    (and long-lived drivers) can tighten or lift it at run time.

    **Thread safety.**  Every operation holds a per-cache lock: the
    analysis daemon's event loop, its compute thread and the worker
    pool's reply paths all touch the same result caches, and an
    ``OrderedDict``'s ``move_to_end``-on-hit is not atomic under
    concurrent mutation.  The lock is uncontended in single-threaded
    use and costs ~100ns per operation — noise next to the clone a hit
    pays anyway.
    """

    __slots__ = ("_data", "_lock")

    def __init__(self) -> None:
        self._data: "OrderedDict" = OrderedDict()
        self._lock = threading.RLock()

    def get(self, key, default=None):
        with self._lock:
            data = self._data
            try:
                value = data[key]
            except KeyError:
                return default
            data.move_to_end(key)
            return value

    def __getitem__(self, key):
        with self._lock:
            value = self._data[key]
            self._data.move_to_end(key)
            return value

    def __setitem__(self, key, value) -> None:
        with self._lock:
            data = self._data
            data[key] = value
            data.move_to_end(key)
            cap = _caps()[0]
            if cap:
                while len(data) > cap:
                    data.popitem(last=False)
                    STATS.cache_evictions += 1

    def setdefault(self, key, value):
        """Insert ``value`` unless ``key`` is held; return the held value.

        Finding the key is not a hit: its recency is left as it was.
        """
        with self._lock:
            if key in self._data:
                return self._data[key]
            self[key] = value
            return value

    def __contains__(self, key) -> bool:
        with self._lock:
            return key in self._data

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __iter__(self) -> Iterator:
        # snapshot: callers may mutate the cache while iterating
        with self._lock:
            return iter(list(self._data))

    def items(self) -> List[Tuple[Any, Any]]:
        """Snapshot of the ``(key, value)`` pairs, least recently used first."""
        with self._lock:
            return list(self._data.items())

    def pop(self, key, default=None):
        with self._lock:
            return self._data.pop(key, default)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()


def evict_intern_overflow(table: dict) -> None:
    """FIFO-half batch eviction for one hash-consing intern table.

    Called by the interning constructor after an insertion pushes the
    table past the cap: the *oldest half* of the entries (dict insertion
    order) is dropped in one sweep, so the hot path pays no per-hit LRU
    bookkeeping.  Eviction is safe — nodes alive elsewhere keep working
    through structural equality, they only lose identity sharing with
    nodes built later.
    """
    cap = _caps()[1]
    if not cap or len(table) <= cap:
        return
    drop = [k for i, k in enumerate(table) if i < len(table) // 2]
    for k in drop:
        del table[k]
    STATS.intern_evictions += len(drop)

#: compiled-loop vectorization-tier histogram: tier name (``segmented``,
#: ``masked``, ``flattened``, ``vectorized``, ``scalar``,
#: ``interp-fallback``) -> number of top-level loops lowered at that tier
TIERS: Dict[str, int] = {}

#: compiled-loop fallback-reason histogram: why loops stayed scalar (the
#: vectorizer's bail reason) or why whole programs fell back to the
#: interpreter (the CompileError text)
FALLBACKS: Dict[str, int] = {}


def record_tier(tier: str) -> None:
    """Count one compiled top-level loop at vectorization ``tier``."""
    TIERS[tier] = TIERS.get(tier, 0) + 1


def record_fallback(reason: str) -> None:
    """Count one loop (or program) that fell back, keyed by reason."""
    FALLBACKS[reason] = FALLBACKS.get(reason, 0) + 1

#: registered caches by name: :class:`BoundedCache` instances or plain dicts
_CACHES: Dict[str, Any] = {}

#: registered intern tables: name -> size_fn
_INTERN_TABLES: Dict[str, Callable[[], int]] = {}

#: registered intern-table clearers (run by :func:`clear_all`)
_INTERN_CLEARERS: List[Callable[[], None]] = []


def register_cache(name: str, cache: Any) -> None:
    """Register a memoization cache (a :class:`BoundedCache` or a dict).

    Registered caches are reported by :func:`cache_sizes`, emptied by
    :func:`clear_caches`, and addressable by name for
    :func:`collect_cache_entries` / :func:`install_cache_entries`.
    """
    _CACHES[name] = cache


def register_intern_table(name: str, size_fn: Callable[[], int]) -> None:
    """Register a hash-consing intern table for size reporting."""
    _INTERN_TABLES[name] = size_fn


def register_intern_clearer(clear_fn: Callable[[], None]) -> None:
    """Register a callable that empties a module's intern tables."""
    _INTERN_CLEARERS.append(clear_fn)


def intern_table_sizes() -> Dict[str, int]:
    """Current size of every registered intern table."""
    return {name: fn() for name, fn in _INTERN_TABLES.items()}


def cache_sizes() -> Dict[str, int]:
    """Current size of every registered memoization cache."""
    return {name: len(cache) for name, cache in _CACHES.items()}


def clear_caches() -> None:
    """Drop every registered memoized result (intern tables are kept).

    Intern tables are *not* cleared here: live expression nodes elsewhere
    in the process would silently lose sharing with newly built ones.
    Correctness would survive (equality falls back to structural keys) but
    the identity fast paths would degrade, so table clearing is a separate,
    deliberate call — :func:`repro.ir.symbols.clear_intern_tables`, or
    :func:`clear_all` to do both in one step.
    """
    for cache in _CACHES.values():
        cache.clear()


def clear_all() -> None:
    """Drop memoized results *and* intern tables (full reset).

    The one-call hammer for test isolation, or for releasing memory
    between batches in a long-lived process sweeping many generated
    sources: runs :func:`clear_caches`, then every registered intern-table
    clearer (:func:`repro.ir.symbols.clear_intern_tables` in practice).
    """
    clear_caches()
    for clear_fn in _INTERN_CLEARERS:
        clear_fn()


def reset_counters() -> None:
    """Zero all hit/miss counters and histograms (caches are untouched)."""
    STATS.reset()
    TIERS.clear()
    FALLBACKS.clear()


def snapshot() -> Dict[str, object]:
    """One dict with counters, cache sizes and intern-table sizes."""
    return {
        "counters": STATS.as_dict(),
        "caches": cache_sizes(),
        "intern_tables": intern_table_sizes(),
        "tiers": dict(TIERS),
        "fallbacks": dict(FALLBACKS),
    }


def _ratio(hits: int, misses: int) -> str:
    total = hits + misses
    if not total:
        return "-"
    return f"{100.0 * hits / total:.1f}%"


def format_stats(snap: Optional[Dict[str, object]] = None) -> str:
    """Human-readable report used by the CLI ``--stats`` flag."""
    snap = snap or snapshot()
    c = snap["counters"]
    lines = ["perf stats"]
    lines.append(f"{'layer':<16} {'hits':>10} {'misses':>10} {'hit rate':>9}")
    for layer in ("intern", "simplify", "expand", "affine", "analysis", "parallelize", "nest", "nestdec"):
        h, m = c[f"{layer}_hits"], c[f"{layer}_misses"]
        lines.append(f"{layer:<16} {h:>10} {m:>10} {_ratio(h, m):>9}")
    if c.get("disk_hits") or c.get("disk_writes") or c.get("disk_race_retries"):
        lines.append(
            f"disk cache: {c['disk_hits']} hits, {c['disk_writes']} writes, "
            f"{c['disk_race_retries']} race retries"
        )
    if c.get("cache_evictions") or c.get("intern_evictions"):
        lines.append(
            f"evictions: {c['cache_evictions']} cache entries, "
            f"{c['intern_evictions']} intern nodes"
        )
    if c.get("inspect_passes") or c.get("inspect_fails") or c.get("inspect_memo_hits"):
        lines.append(
            f"speculative inspections: {c['inspect_passes']} pass, "
            f"{c['inspect_fails']} fail, {c['inspect_memo_hits']} memo hits"
        )
    if c.get("budget_checks") or c.get("budget_stops"):
        lines.append(
            f"budget checkpoints: {c['budget_checks']} checks, {c['budget_stops']} stops"
        )
    sizes = snap["intern_tables"]
    if sizes:
        total = sum(sizes.values())
        per_class = ", ".join(f"{k}={v}" for k, v in sorted(sizes.items()) if v)
        lines.append(f"intern tables: {total} nodes ({per_class or 'empty'})")
    caches = snap["caches"]
    if caches:
        lines.append("caches: " + ", ".join(f"{k}={v}" for k, v in sorted(caches.items())))
    tiers = snap.get("tiers") or {}
    if tiers:
        order = ["segmented", "masked", "flattened", "vectorized", "scalar", "interp-fallback"]
        keys = [k for k in order if k in tiers] + sorted(set(tiers) - set(order))
        lines.append("compiled loop tiers: " + ", ".join(f"{k}={tiers[k]}" for k in keys))
    fb = snap.get("fallbacks") or {}
    if fb:
        lines.append("fallback reasons:")
        for reason, n in sorted(fb.items(), key=lambda kv: (-kv[1], kv[0])):
            lines.append(f"  {n:>4}  {reason}")
    return "\n".join(lines)
