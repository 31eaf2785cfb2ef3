"""tracemalloc around a block, and the bytes a graph's node values hold,
for the tests that bound memory."""

import contextlib
import tracemalloc

import numpy as np

from spectralmae.tensor import Parameter, Tensor


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


def value_bytes(out: Tensor) -> int:
    """Bytes of the values of every graph node behind `out` but the Parameters,
    each buffer counted once: a view counts as the array it views."""
    owners, seen, stack = {}, set(), [out]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
        if not isinstance(node, Parameter):
            owner = node.data
            while isinstance(owner.base, np.ndarray):
                owner = owner.base
            owners[id(owner)] = owner.nbytes
    return sum(owners.values())
