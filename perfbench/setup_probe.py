"""One user process from launch to its first row call, for ``setup_s``.

Run as ``python3 perfbench/setup_probe.py <src-dir> <workers>``.  It
imports the Table 1 harness, builds the shared instance cache and the
executor for ``workers``, spins up the process pool when ``workers`` is
above one, and prints ``time.monotonic()`` at that point.  The parent
subtracts its own ``time.monotonic()`` taken just before launch (the
clock is system-wide on Linux), so interpreter start-up counts.
"""

import sys
import time


def main() -> None:
    src, workers = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, src)
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    import repro.analysis.table1  # noqa: F401 - the harness import chain
    from repro.runtime import ParallelExecutor, default_executor, shared_cache

    with shared_cache(workers):
        executor = default_executor(workers)
        if isinstance(executor, ParallelExecutor):
            context = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(max_workers=executor.workers,
                                     mp_context=context) as pool:
                list(pool.map(abs, range(executor.workers)))
                print(time.monotonic(), flush=True)
        else:
            print(time.monotonic(), flush=True)


if __name__ == "__main__":
    main()
