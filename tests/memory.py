"""Traced memory of one call, for the tests that bound what code allocates."""

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
