"""Run one hilbcount CLI job in this (fresh) interpreter and report on it.

    python3 perfbench/job.py --report PATH [--profile PATH] -- <hilbcount args>

The job's stdout and exit code are exactly those of the `hilbcount` console
script.  The report file receives a JSON object with the monotonic time at
which `hilbcount.cli` finished importing (the parent subtracts its spawn
time), the process's peak RSS, and, when profiling, the spans and counts of
the wrapped `cache.load`/`cache.store` calls.  With --profile the CLI call
(not the import) runs under cProfile and the raw stats are dumped to PATH.
The package source is never modified: the cache functions are wrapped by
rebinding module attributes in this process only.
"""

import sys
import time


def _parse(argv):
    opts = {}
    while argv and argv[0] != "--":
        flag, value, argv = argv[0], argv[1], argv[2:]
        opts[flag.lstrip("-")] = value
    return opts, argv[1:]


def _wrap_cache(cache, stats):
    """Rebind cache.load/store to timed wrappers that also count hits,
    misses and files quarantined (renamed to *.corrupt) by a load."""
    import os

    load, store = cache.load, cache.store

    def corrupt_files(cache_dir):
        try:
            return sum(1 for f in os.listdir(cache_dir) if f.endswith(".corrupt"))
        except FileNotFoundError:
            return 0

    def timed_load(cache_dir, config):
        before = corrupt_files(cache_dir)
        t0 = time.perf_counter()
        try:
            payload = load(cache_dir, config)
        finally:
            stats["load_s"] += time.perf_counter() - t0
        stats["hits" if payload is not None else "misses"] += 1
        stats["quarantined"] += corrupt_files(cache_dir) - before
        return payload

    def timed_store(cache_dir, config, payload):
        t0 = time.perf_counter()
        try:
            return store(cache_dir, config, payload)
        finally:
            stats["store_s"] += time.perf_counter() - t0

    cache.load, cache.store = timed_load, timed_store


def main():
    opts, cli_args = _parse(sys.argv[1:])
    from hilbcount import cache, cli

    ready = time.monotonic()
    import json
    import resource

    cache_stats = {"load_s": 0.0, "store_s": 0.0, "hits": 0, "misses": 0, "quarantined": 0}
    if "profile" in opts:
        import cProfile

        _wrap_cache(cache, cache_stats)
        prof = cProfile.Profile()
        rc = prof.runcall(cli.dispatch, cli_args)
        prof.dump_stats(opts["profile"])
    else:
        rc = cli.dispatch(cli_args)
    sys.stdout.flush()
    report = {
        "ready": ready,
        "module": cli.__file__,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "cache": cache_stats,
    }
    with open(opts["report"], "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    sys.exit(rc)


if __name__ == "__main__":
    main()
