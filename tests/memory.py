"""Traced memory of one call, for the tests that bound what code allocates, and a check of one buffer's views."""

import tracemalloc


def traced(call):
    """Run ``call()`` under tracemalloc; return its result, its peak and its held bytes.

    The peak is the most bytes the call had allocated at once, and the held
    bytes are those still allocated when it returns.

    Only allocations made during the call count: arrays that exist before it
    are in neither figure, also when the call frees them.
    """
    tracemalloc.start()
    try:
        result = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak, held


def packed(arrays):
    """Whether ``arrays`` are C-contiguous views that tile one buffer, in order, from its first byte to its last."""
    arrays = list(arrays)
    buffer = arrays[0].base
    if buffer is None:
        return False
    at = buffer.__array_interface__["data"][0]
    for a in arrays:
        if a.base is not buffer or not a.flags.c_contiguous or a.__array_interface__["data"][0] != at:
            return False
        at += a.nbytes
    return at == buffer.__array_interface__["data"][0] + buffer.nbytes
