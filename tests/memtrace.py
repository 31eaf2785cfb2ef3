"""tracemalloc around a block, for the tests that bound memory."""

import contextlib
import tracemalloc


@contextlib.contextmanager
def traced_memory():
    """Trace the block's allocations and yield `read()`.

    `read()` returns the bytes live now and the peak since the previous read
    (or since the block began), both counted from the block's starting level.
    """
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]

        def read():
            live, peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            return live - before, peak - before

        yield read
    finally:
        tracemalloc.stop()
