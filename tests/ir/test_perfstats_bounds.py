"""Bounded result caches and intern-table caps.

Long-lived drivers (figure regeneration, fuzzing, the experiment pool)
must not grow memoization state without bound: every result cache is an
LRU :class:`~repro.ir.perfstats.BoundedCache` and the hash-consing intern
tables evict their oldest half past the cap.  ``REPRO_CACHE_MAX_ENTRIES``
is the escape hatch (tighten, widen, or ``0`` = unbounded) and is re-read
at run time, so a driver can adjust it mid-flight.
"""

from __future__ import annotations

from repro.ir import perfstats


class TestBoundedCache:
    def test_lru_eviction_bumps_counter(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MAX_ENTRIES", "3")
        c = perfstats.BoundedCache()
        before = perfstats.STATS.cache_evictions
        for k in "abc":
            c[k] = k.upper()
        assert c.get("a") == "A"  # refreshes recency: b is now the LRU
        c["d"] = "D"
        assert "a" in c and "d" in c
        assert "b" not in c
        assert len(c) == 3
        assert perfstats.STATS.cache_evictions == before + 1

    def test_zero_cap_is_unbounded(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MAX_ENTRIES", "0")
        c = perfstats.BoundedCache()
        before = perfstats.STATS.cache_evictions
        for i in range(perfstats.DEFAULT_CACHE_MAX_ENTRIES + 10):
            c[i] = i
        assert len(c) == perfstats.DEFAULT_CACHE_MAX_ENTRIES + 10
        assert perfstats.STATS.cache_evictions == before

    def test_cap_is_reread_at_runtime(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MAX_ENTRIES", "10")
        c = perfstats.BoundedCache()
        for i in range(10):
            c[i] = i
        monkeypatch.setenv("REPRO_CACHE_MAX_ENTRIES", "4")
        c["new"] = 1  # insertion under the tighter cap shrinks to it
        assert len(c) == 4
        assert "new" in c

    def test_garbage_env_falls_back_to_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MAX_ENTRIES", "not-a-number")
        assert perfstats.cache_max_entries() == perfstats.DEFAULT_CACHE_MAX_ENTRIES

    def test_production_caches_are_bounded(self):
        """Every registered memoization cache is an LRU BoundedCache."""
        from repro.analysis.analyzer import _ANALYSIS_CACHE, _NEST_CACHE
        from repro.parallelizer.driver import _NESTDEC_CACHE, _PARALLELIZE_CACHE

        for cache in (_ANALYSIS_CACHE, _NEST_CACHE, _NESTDEC_CACHE, _PARALLELIZE_CACHE):
            assert isinstance(cache, perfstats.BoundedCache)

    def test_concurrent_hammer(self, monkeypatch):
        """8 threads of mixed get/set/pop/iter/clear traffic stay safe.

        The daemon's reply cache and the analysis result caches are hit
        from the event loop and compute threads concurrently — the lock
        must keep the LRU structurally intact (no KeyError from a
        mid-eviction read, no over-cap growth, no wedged lock).
        """
        import random
        import threading

        monkeypatch.setenv("REPRO_CACHE_MAX_ENTRIES", "64")
        c = perfstats.BoundedCache()
        errors = []

        def worker(tid):
            rng = random.Random(tid)
            try:
                for i in range(4000):
                    k = rng.randrange(256)
                    op = i % 7
                    if op in (0, 1):
                        c[k] = (tid, i)
                    elif op == 2:
                        v = c.get(k)
                        assert v is None or isinstance(v, tuple)
                    elif op == 3:
                        k in c  # noqa: B015 - exercising __contains__
                    elif op == 4:
                        assert len(c) <= 64
                    elif op == 5:
                        c.pop(k)
                    else:
                        for kk in c:  # snapshot iteration under writes
                            c.get(kk)
                if tid == 0:
                    c.clear()
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads), "hammer wedged"
        assert not errors, errors
        assert len(c) <= 64
        c["after"] = 1
        assert c.get("after") == 1  # still functional after the storm

    def test_analysis_survives_a_cap_of_one(self, monkeypatch):
        """Correctness under extreme pressure: with room for one entry the
        caches thrash but results stay right."""
        from repro.analysis import AnalysisConfig
        from repro.parallelizer import parallelize

        monkeypatch.setenv("REPRO_CACHE_MAX_ENTRIES", "1")
        before = perfstats.STATS.cache_evictions
        srcs = [
            f"for (i = 0; i < n; i++) bnd{k}[i] = bnd{k}[i] + {k};\n"
            for k in range(3)
        ]
        for src in srcs + srcs:
            res = parallelize(src, AnalysisConfig.new_algorithm())
            assert res.decisions
        assert perfstats.STATS.cache_evictions > before


class TestInternEviction:
    def test_oldest_half_dropped(self, monkeypatch):
        monkeypatch.setattr(perfstats, "_caps", lambda: (4096, 8))
        table = {i: i for i in range(10)}
        before = perfstats.STATS.intern_evictions
        perfstats.evict_intern_overflow(table)
        assert len(table) == 5
        assert set(table) == {5, 6, 7, 8, 9}
        assert perfstats.STATS.intern_evictions == before + 5

    def test_under_cap_is_untouched(self, monkeypatch):
        monkeypatch.setattr(perfstats, "_caps", lambda: (4096, 16))
        table = {i: i for i in range(10)}
        perfstats.evict_intern_overflow(table)
        assert len(table) == 10

    def test_interning_keeps_working_after_eviction(self, monkeypatch):
        """Evicted nodes lose identity sharing, never equality."""
        from repro.ir import symbols

        monkeypatch.setenv("REPRO_CACHE_MAX_ENTRIES", "1")  # tiny intern cap? no:
        # the intern cap never drops below its default via the env knob, so
        # drive the eviction helper directly on a live-shaped table instead
        monkeypatch.setattr(perfstats, "_caps", lambda: (4096, 4))
        a = symbols.Sym("bounded_probe_a")
        table = {("k", i): i for i in range(6)}
        perfstats.evict_intern_overflow(table)
        assert len(table) == 3
        b = symbols.Sym("bounded_probe_a")
        assert a == b  # structural equality survives any eviction policy


class TestCacheEntryChannel:
    """collect_cache_entries gathers what a piece of work added, for the
    harness's worker replies (installing is covered with the harness in
    tests/experiments/test_parallel_harness.py)."""

    def test_collects_only_entries_added_and_still_held(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MAX_ENTRIES", "3")
        cache = perfstats.BoundedCache()
        monkeypatch.setitem(perfstats._CACHES, "probe", cache)
        cache["old"] = 0
        with perfstats.collect_cache_entries(["probe", "not-registered"]) as added:
            for k in "abcd":  # "old" and "a" are evicted on the way
                cache[k] = k.upper()
        assert added == {"probe": [("b", "B"), ("c", "C"), ("d", "D")]}

    def test_setdefault_on_a_held_key_leaves_recency_alone(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MAX_ENTRIES", "2")
        cache = perfstats.BoundedCache()
        cache["a"], cache["b"] = "A", "B"
        assert cache.setdefault("a", "other") == "A"
        cache["c"] = "C"  # "a" is still the least recently used
        assert "a" not in cache and "b" in cache
